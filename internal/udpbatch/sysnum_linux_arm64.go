package udpbatch

const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
