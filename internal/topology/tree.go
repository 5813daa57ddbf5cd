// Package topology builds the evaluation topologies of the paper: the
// height-3/degree-3 tree of the functional evaluation (Fig. 5), and the
// synthetic Internet-scale AS topologies of Section VII (Figs. 11-12),
// which stand in for the proprietary CAIDA Skitter / CBL / GeoLite
// datasets.
package topology

import (
	"fmt"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/units"
)

// TreeConfig describes the functional-evaluation tree (paper Fig. 5).
type TreeConfig struct {
	// Height and Degree shape the domain tree; the paper uses 3 and 3,
	// giving 27 leaf domains (paths).
	Height, Degree int
	// TargetRateBits is the flooded link's capacity (paper: 500 Mb/s).
	TargetRateBits units.BitsPerSec
	// InnerRateBits is the capacity of interior tree links; they must not
	// be the bottleneck (default: 4x the target link).
	InnerRateBits units.BitsPerSec
	// HopDelay is the per-link propagation delay in seconds.
	HopDelay float64
	// DelayJitterFrac perturbs each interior link's delay by up to this
	// fraction so paths have distinct RTTs.
	DelayJitterFrac float64
	// BufferPackets is the queue capacity of interior and reverse links.
	BufferPackets int
	// NumServers is how many destination hosts sit behind the target link
	// (covert-attack experiments connect to many destinations).
	NumServers int
	// UplinkDisc, when set, supplies the queue discipline for a domain
	// node's uplink (depth 1..Height, path = the node's identifier); nil
	// or a nil return falls back to a plain FIFO. Pushback-style
	// defenses use it to place rate limiters at upstream routers.
	UplinkDisc func(depth int, path pathid.PathID) netsim.Discipline
}

// DefaultTreeConfig returns the paper's Fig. 5 parameters.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{
		Height:          3,
		Degree:          3,
		TargetRateBits:  500e6,
		InnerRateBits:   2000e6,
		HopDelay:        0.01,
		DelayJitterFrac: 0.3,
		BufferPackets:   4000,
		NumServers:      25,
	}
}

// revHop is one step of a leaf's reverse (server-to-host) routing chain.
type revHop struct {
	router *netsim.Router
	link   *netsim.Link
}

// leafSite is the per-leaf-domain attachment state.
type leafSite struct {
	fwd      *netsim.Router
	rev      *netsim.Router
	revChain []revHop
	path     pathid.PathID
	hosts    int
}

// Tree is a built functional-evaluation topology.
type Tree struct {
	Net *netsim.Network
	// Target is the flooded link (its discipline is the defense under
	// test; measure deliveries with Target.DeliverHook).
	Target *netsim.Link
	// Servers are the destination hosts behind the target link.
	Servers []*netsim.Host
	// LeafPaths[i] is the path identifier of leaf domain i.
	LeafPaths []pathid.PathID

	cfg        TreeConfig
	root       *netsim.Router
	serverRtr  *netsim.Router
	reverseTop *netsim.Router
	sites      []*leafSite
	nextAddr   uint32
}

// NumLeaves returns the number of leaf domains.
func (t *Tree) NumLeaves() int { return len(t.sites) }

// NewTree builds the topology. disc becomes the target link's queue
// discipline (the defense under test).
func NewTree(net *netsim.Network, cfg TreeConfig, disc netsim.Discipline) (*Tree, error) {
	if cfg.Height < 1 || cfg.Degree < 1 {
		return nil, fmt.Errorf("topology: height/degree must be >= 1")
	}
	if cfg.TargetRateBits <= 0 {
		return nil, fmt.Errorf("topology: target rate %v <= 0", cfg.TargetRateBits)
	}
	if disc == nil {
		return nil, fmt.Errorf("topology: nil target discipline")
	}
	if cfg.InnerRateBits <= 0 {
		cfg.InnerRateBits = 4 * cfg.TargetRateBits
	}
	if cfg.BufferPackets < 10 {
		cfg.BufferPackets = 10
	}
	if cfg.NumServers < 1 {
		cfg.NumServers = 1
	}
	t := &Tree{Net: net, cfg: cfg, nextAddr: 1 << 20}

	// Server side: target link -> server router -> server hosts, with a
	// shared reverse link from the servers back into the domain tree.
	t.serverRtr = netsim.NewRouter("server-rtr")
	target, err := netsim.NewLink("target", cfg.TargetRateBits, cfg.HopDelay, disc, t.serverRtr)
	if err != nil {
		return nil, err
	}
	t.Target = target

	t.reverseTop = netsim.NewRouter("reverse-top")
	revLink, err := netsim.NewLink("reverse-top-link", cfg.InnerRateBits, cfg.HopDelay,
		netsim.NewFIFO(cfg.BufferPackets), t.reverseTop)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumServers; i++ {
		addr := uint32(1<<24) + uint32(i)
		h := netsim.NewHost(fmt.Sprintf("server-%d", i), addr)
		h.SetAccess(revLink)
		access, err := netsim.NewLink(fmt.Sprintf("server-access-%d", i),
			cfg.InnerRateBits, 0.0005, netsim.NewFIFO(cfg.BufferPackets), h)
		if err != nil {
			return nil, err
		}
		t.serverRtr.AddRoute(addr, access)
		t.Servers = append(t.Servers, h)
	}

	// Domain tree. Forward routers route up toward the target; reverse
	// routers route down toward hosts.
	t.root = netsim.NewRouter("R0")
	t.root.SetDefault(target)

	jitter := func() float64 {
		if cfg.DelayJitterFrac <= 0 {
			return 1
		}
		return 1 + cfg.DelayJitterFrac*(2*net.Rand().Float64()-1)
	}

	type nodeCtx struct {
		fwd      *netsim.Router
		rev      *netsim.Router
		revChain []revHop
		path     pathid.PathID
	}
	level := []nodeCtx{{fwd: t.root, rev: t.reverseTop}}
	asCounter := pathid.ASN(1)
	for depth := 1; depth <= cfg.Height; depth++ {
		var next []nodeCtx
		for _, parent := range level {
			for c := 0; c < cfg.Degree; c++ {
				as := asCounter
				asCounter++
				fwd := netsim.NewRouter(fmt.Sprintf("f%d", as))
				rev := netsim.NewRouter(fmt.Sprintf("r%d", as))
				d := cfg.HopDelay * jitter()
				path := append(pathid.PathID{as}, parent.path...)
				var upDisc netsim.Discipline
				if cfg.UplinkDisc != nil {
					upDisc = cfg.UplinkDisc(depth, path)
				}
				if upDisc == nil {
					upDisc = netsim.NewFIFO(cfg.BufferPackets)
				}
				up, err := netsim.NewLink(fmt.Sprintf("up-%d", as), cfg.InnerRateBits,
					d, upDisc, parent.fwd)
				if err != nil {
					return nil, err
				}
				fwd.SetDefault(up)
				down, err := netsim.NewLink(fmt.Sprintf("down-%d", as), cfg.InnerRateBits,
					d, netsim.NewFIFO(cfg.BufferPackets), rev)
				if err != nil {
					return nil, err
				}
				chain := make([]revHop, len(parent.revChain), len(parent.revChain)+1)
				copy(chain, parent.revChain)
				chain = append(chain, revHop{router: parent.rev, link: down})
				next = append(next, nodeCtx{fwd: fwd, rev: rev, revChain: chain, path: path})
			}
		}
		level = next
	}
	for _, nc := range level {
		t.sites = append(t.sites, &leafSite{
			fwd: nc.fwd, rev: nc.rev, revChain: nc.revChain, path: nc.path,
		})
		t.LeafPaths = append(t.LeafPaths, nc.path)
	}
	return t, nil
}

// AddHost attaches a new host to leaf domain leafIdx and returns it. The
// host can reach every server, and reverse routing from the servers back
// to the host is installed along the tree.
func (t *Tree) AddHost(leafIdx int) (*netsim.Host, error) {
	if leafIdx < 0 || leafIdx >= len(t.sites) {
		return nil, fmt.Errorf("topology: leaf %d out of range [0,%d)", leafIdx, len(t.sites))
	}
	site := t.sites[leafIdx]
	addr := t.nextAddr
	t.nextAddr++
	site.hosts++
	h := netsim.NewHost(fmt.Sprintf("h%d-%d", leafIdx, site.hosts), addr)
	access, err := netsim.NewLink(fmt.Sprintf("acc-%d-%d", leafIdx, site.hosts),
		t.cfg.InnerRateBits, 0.001, netsim.NewFIFO(t.cfg.BufferPackets), site.fwd)
	if err != nil {
		return nil, err
	}
	h.SetAccess(access)
	back, err := netsim.NewLink(fmt.Sprintf("back-%d-%d", leafIdx, site.hosts),
		t.cfg.InnerRateBits, 0.001, netsim.NewFIFO(t.cfg.BufferPackets), h)
	if err != nil {
		return nil, err
	}
	for _, hop := range site.revChain {
		hop.router.AddRoute(addr, hop.link)
	}
	site.rev.AddRoute(addr, back)
	return h, nil
}

// Path returns leaf domain leafIdx's path identifier.
func (t *Tree) Path(leafIdx int) pathid.PathID { return t.sites[leafIdx].path }
