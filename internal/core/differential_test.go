package core

import (
	"bytes"
	"reflect"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
)

// TestDifferentialHandleVsStringAdmission is the pinning test for the
// zero-hash hot path: a seeded randomized scenario is run twice, once
// through per-item Enqueue with string-keyed packets (PathHandle left
// zero, forcing the memo/hash resolution path) and once through
// EnqueueBatch with pre-interned dense handles stamped on every packet.
// The two routers must agree bit-for-bit — identical admission verdicts,
// identical Snapshot, identical telemetry registry text — because the
// handle is a pure lookup accelerator, never a semantic input.
func TestDifferentialHandleVsStringAdmission(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run("", func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}

func runDifferential(t *testing.T, seed uint64) {
	t.Helper()
	cfg := DefaultConfig(8e6, 64)
	cfg.Seed = seed
	strRouter, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdlRouter, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strTel := telemetry.New(1 << 12)
	hdlTel := telemetry.New(1 << 12)
	strRouter.SetTelemetry(strTel)
	hdlRouter.SetTelemetry(hdlTel)

	// A small path population with a few heavy hitters: enough paths to
	// exercise the open-addressed tables past their initial size, enough
	// skew to congest the link and cross every admission branch.
	src := rng.New(seed * 0x9e3779b97f4a7c15)
	const nPaths = 24
	paths := make([]pathid.PathID, nPaths)
	keys := make([]string, nPaths)
	handles := make([]uint32, nPaths)
	for i := range paths {
		paths[i] = pathid.New(pathid.ASN(100+i), pathid.ASN(i%4+1), 1)
		keys[i] = paths[i].Key()
		handles[i] = hdlRouter.InternPath(paths[i])
	}
	kinds := []netsim.PacketKind{
		netsim.KindUDP, netsim.KindUDP, netsim.KindUDP,
		netsim.KindSYN, netsim.KindData, netsim.KindACK,
	}

	now := 0.0
	id := uint64(0)
	for round := 0; round < 400; round++ {
		// Random chunk per round; arrivals cross control boundaries
		// (interval 0.5 s) several times over the run.
		chunk := 1 + src.Intn(32)
		// Fresh backing storage each round: the router keeps pointers to
		// admitted packets in its queue, so reusing a scratch slice would
		// mutate packets still in flight.
		batch := make([]BatchItem, 0, chunk)
		batchPkts := make([]netsim.Packet, 0, chunk)
		type arrival struct {
			pi   int
			src  uint32
			size int
			kind netsim.PacketKind
			at   float64
		}
		arrivals := make([]arrival, chunk)
		for j := range arrivals {
			now += 0.0002 + float64(src.Intn(5))*0.0002
			pi := src.Intn(nPaths)
			if src.Intn(3) == 0 {
				pi = nPaths - 1 // the flooder: a third of all traffic
			}
			arrivals[j] = arrival{
				pi:   pi,
				src:  uint32(pi*8 + src.Intn(6)),
				size: 200 + src.Intn(1300),
				kind: kinds[src.Intn(len(kinds))],
				at:   now,
			}
		}

		// String-keyed router: per-item Enqueue, fresh packet each time,
		// PathHandle deliberately left zero.
		strAdmitted := 0
		for _, a := range arrivals {
			id++
			pkt := &netsim.Packet{
				ID: id, Src: a.src, Dst: 9, Size: a.size,
				Kind: a.kind, Path: paths[a.pi], PathKey: keys[a.pi],
			}
			if strRouter.Enqueue(pkt, a.at) {
				strAdmitted++
			}
		}

		// Handle-carrying router: the same arrivals as one batch.
		id -= uint64(chunk)
		for _, a := range arrivals {
			id++
			batchPkts = append(batchPkts, netsim.Packet{
				ID: id, Src: a.src, Dst: 9, Size: a.size,
				Kind: a.kind, Path: paths[a.pi], PathKey: keys[a.pi],
				PathHandle: handles[a.pi],
			})
		}
		for j := range batchPkts {
			batch = append(batch, BatchItem{Pkt: &batchPkts[j], At: arrivals[j].at})
		}
		if hdlAdmitted := hdlRouter.EnqueueBatch(batch); hdlAdmitted != strAdmitted {
			t.Fatalf("round %d: handles admitted %d, strings admitted %d",
				round, hdlAdmitted, strAdmitted)
		}

		// Chunk-synchronized service keeps both queues congested
		// identically: drain roughly half the chunk each round.
		for d := 0; d < chunk/2; d++ {
			sp := strRouter.Dequeue(now)
			hp := hdlRouter.Dequeue(now)
			if (sp == nil) != (hp == nil) {
				t.Fatalf("round %d: dequeue divergence (string=%v handle=%v)",
					round, sp != nil, hp != nil)
			}
			if sp != nil && sp.ID != hp.ID {
				t.Fatalf("round %d: dequeued IDs diverge: %d vs %d", round, sp.ID, hp.ID)
			}
		}
	}

	if !reflect.DeepEqual(strRouter.Snapshot(), hdlRouter.Snapshot()) {
		t.Fatalf("snapshots diverged:\nstring:\n%shandle:\n%s",
			strRouter.Snapshot().String(), hdlRouter.Snapshot().String())
	}
	var strOut, hdlOut bytes.Buffer
	if err := strTel.Registry.WriteText(&strOut); err != nil {
		t.Fatal(err)
	}
	if err := hdlTel.Registry.WriteText(&hdlOut); err != nil {
		t.Fatal(err)
	}
	if strOut.String() != hdlOut.String() {
		t.Fatalf("telemetry tallies diverged:\nstring:\n%s\nhandle:\n%s",
			strOut.String(), hdlOut.String())
	}
}
