package netsim

import "fmt"

// Router forwards packets by destination address using a static FIB with a
// default route. Routers are where defended links attach: the defense is
// the queue discipline of the router's outgoing link.
type Router struct {
	Name string
	fib  map[uint32]*Link
	def  *Link
}

var _ Endpoint = (*Router)(nil)

// NewRouter returns a router with an empty FIB and no default route.
func NewRouter(name string) *Router {
	return &Router{Name: name, fib: map[uint32]*Link{}}
}

// AddRoute installs a host route for dst.
func (r *Router) AddRoute(dst uint32, l *Link) { r.fib[dst] = l }

// SetDefault installs the default route.
func (r *Router) SetDefault(l *Link) { r.def = l }

// Route returns the outgoing link for dst, or nil if unroutable.
func (r *Router) Route(dst uint32) *Link {
	if l, ok := r.fib[dst]; ok {
		return l
	}
	return r.def
}

// Receive implements Endpoint by forwarding the packet.
func (r *Router) Receive(net *Network, pkt *Packet) {
	l := r.Route(pkt.Dst)
	if l == nil {
		// Unroutable packets vanish; experiments treat this as a
		// configuration error surfaced by tests.
		return
	}
	l.Send(net, pkt)
}

// Agent is a transport endpoint living on a Host: a TCP source or sink, or
// an attack traffic generator.
type Agent interface {
	// Deliver hands the agent a packet addressed to its host from its peer.
	Deliver(net *Network, pkt *Packet)
}

// Host is an end system with one access link and a set of transport
// agents keyed by peer address.
type Host struct {
	Name string
	Addr uint32

	out    *Link
	agents map[uint32]Agent
}

var _ Endpoint = (*Host)(nil)

// NewHost creates a host with address addr.
func NewHost(name string, addr uint32) *Host {
	return &Host{Name: name, Addr: addr, agents: map[uint32]Agent{}}
}

// SetAccess sets the host's outgoing access link.
func (h *Host) SetAccess(l *Link) { h.out = l }

// Attach registers an agent for a peer address. It returns an error if the
// peer already has an agent.
func (h *Host) Attach(peer uint32, a Agent) error {
	if _, ok := h.agents[peer]; ok {
		return fmt.Errorf("netsim: host %s already has an agent for peer %d", h.Name, peer)
	}
	h.agents[peer] = a
	return nil
}

// Agent returns the agent registered for peer, or nil.
func (h *Host) Agent(peer uint32) Agent { return h.agents[peer] }

// Send transmits a packet out the host's access link.
func (h *Host) Send(net *Network, pkt *Packet) {
	if h.out == nil {
		panic(fmt.Sprintf("netsim: host %s has no access link", h.Name))
	}
	h.out.Send(net, pkt)
}

// Receive implements Endpoint by dispatching to the agent for the
// packet's source; a packet from a peer with no agent is ignored.
func (h *Host) Receive(net *Network, pkt *Packet) {
	if a, ok := h.agents[pkt.Src]; ok {
		a.Deliver(net, pkt)
	}
}
