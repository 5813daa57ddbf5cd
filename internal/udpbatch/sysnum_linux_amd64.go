package udpbatch

// The frozen syscall package has SYS_RECVMMSG on amd64 but predates
// sendmmsg(2); both numbers are spelled out per architecture so the pair
// reads as one table.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
