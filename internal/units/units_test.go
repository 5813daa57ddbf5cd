package units

import (
	"math"
	"testing"

	"floc/internal/rng"
)

func TestFromPacket(t *testing.T) {
	if got := FromPacket(1000); got != 8000 {
		t.Fatalf("FromPacket(1000) = %v, want 8000", got)
	}
	if got := FromPacket(0); got != 0 {
		t.Fatalf("FromPacket(0) = %v, want 0", got)
	}
}

func TestBitsBytes(t *testing.T) {
	if got := Bits(8000).Bytes(); got != 1000 {
		t.Fatalf("Bits(8000).Bytes() = %v, want 1000", got)
	}
	if got := FromPacket(1500).Bytes(); got != 1500 {
		t.Fatalf("FromPacket(1500).Bytes() = %v, want 1500", got)
	}
}

func TestBitsPer(t *testing.T) {
	if got := Bits(8000).Per(2); got != 4000 {
		t.Fatalf("Bits(8000).Per(2) = %v, want 4000", got)
	}
	if got := Bits(8000).Per(0); got != 0 {
		t.Fatalf("Bits(8000).Per(0) = %v, want 0", got)
	}
	if got := Bits(8000).Per(-1); got != 0 {
		t.Fatalf("Bits(8000).Per(-1) = %v, want 0", got)
	}
}

func TestBitsPerSecTimes(t *testing.T) {
	if got := BitsPerSec(1e6).Times(0.1); got != 1e5 {
		t.Fatalf("BitsPerSec(1e6).Times(0.1) = %v, want 1e5", got)
	}
	if got := BitsPerSec(1e6).Times(-0.1); got != 0 {
		t.Fatalf("BitsPerSec(1e6).Times(-0.1) = %v, want 0", got)
	}
}

func TestScale(t *testing.T) {
	if got := BitsPerSec(1000).Scale(0.5); got != 500 {
		t.Fatalf("Scale(0.5) = %v, want 500", got)
	}
}

func TestBytesPerSec(t *testing.T) {
	if got := BitsPerSec(200e6).BytesPerSec(); got != 25e6 {
		t.Fatalf("BitsPerSec(200e6).BytesPerSec() = %v, want 25e6", got)
	}
	if got := FromBytesPerSec(25e6); got != 200e6 {
		t.Fatalf("FromBytesPerSec(25e6) = %v, want 200e6", got)
	}
	if got := FromBytesPerSec(BitsPerSec(500e6).BytesPerSec()); got != 500e6 {
		t.Fatalf("bits/s → bytes/s → bits/s = %v, want 500e6", got)
	}
}

func TestReferencePacketRates(t *testing.T) {
	if got := BitsPerSec(8e6).Packets(1000); got != 1000 {
		t.Fatalf("BitsPerSec(8e6).Packets(1000) = %v, want 1000", got)
	}
	if got := PacketsPerSec(1000).Bits(1000); got != 8e6 {
		t.Fatalf("PacketsPerSec(1000).Bits(1000) = %v, want 8e6", got)
	}
	if got := PacketsPerSec(100).Bits(1500); got != 1.2e6 {
		t.Fatalf("PacketsPerSec(100).Bits(1500) = %v, want 1.2e6", got)
	}
}

func TestPacketsPerSecTimes(t *testing.T) {
	if got := PacketsPerSec(125).Times(2); got != 250 {
		t.Fatalf("PacketsPerSec(125).Times(2) = %v, want 250", got)
	}
	if got := PacketsPerSec(125).Times(0); got != 0 {
		t.Fatalf("PacketsPerSec(125).Times(0) = %v, want 0", got)
	}
}

// TestRoundTrip checks rate/amount composition is consistent.
func TestRoundTrip(t *testing.T) {
	amount := FromPacket(1500)
	rate := amount.Per(0.5)
	back := rate.Times(0.5)
	if back != amount {
		t.Fatalf("round trip: %v != %v", back, amount)
	}
}

// operands are the inputs of the bit-equality table: zeros, ordinary
// magnitudes, infinities, NaN, negatives, random positive finite floats,
// and random mantissas at the two ends of the exponent range — subnormals,
// the smallest normals (whose eighth is subnormal) and values near
// overflow — where dividing by 8 is not exact and the order of two
// roundings shows.
func operands() []float64 {
	out := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1030, 0x1.fffffffffffffp-1023, 0x1p-1022, 0x1.8p-1020,
		1e-300, 1e-9, 0.064, 0.1, 1, 3, 1000, 1500, 6250, 200e6, 500e6,
		1e300, math.MaxFloat64 / 9, math.MaxFloat64 / 2, math.MaxFloat64,
		math.Inf(1), math.NaN(), -1, -200e6,
	}
	src := rng.New(29)
	for len(out) < 256 {
		f := math.Float64frombits(src.Uint64() &^ (1 << 63))
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			out = append(out, f)
		}
	}
	for i := uint64(0); i < 128; i++ {
		m := src.Uint64() & (1<<52 - 1)
		out = append(out,
			math.Float64frombits(m),
			math.Float64frombits(m|(1+i%16)<<52),
			math.Float64frombits(m|(2046-i%16)<<52))
	}
	return out
}

// TestHelpersMatchInlineArithmetic holds every conversion and composition
// the module routes through this package to the exact float64 bits of the
// inline expression it replaced, so that swapping one in changes no
// router decision and no golden. A duration y is positive wherever the
// caller guarded it so.
func TestHelpersMatchInlineArithmetic(t *testing.T) {
	xs := operands()
	var ys []float64
	for _, y := range xs {
		if y > 0 {
			ys = append(ys, y)
		}
	}
	sizes := []int{1, 64, 576, 1000, 1500, 9000, 1 << 40}
	rows := []struct {
		name string
		// pair returns the helper's result and the replaced expression's.
		pair func(x, y float64, size int) (got, want float64)
	}{
		{"BitsPerSec.BytesPerSec = x/8 (shard and link transmitters)", func(x, _ float64, _ int) (float64, float64) {
			return BitsPerSec(x).BytesPerSec(), x / 8
		}},
		{"FromBytesPerSec = x*8 (Link.RateBits)", func(x, _ float64, _ int) (float64, float64) {
			return float64(FromBytesPerSec(x)), x * 8
		}},
		{"BitsPerSec.Packets = x/8/size (Config.linkRatePackets)", func(x, _ float64, size int) (float64, float64) {
			return float64(BitsPerSec(x).Packets(size)), x / 8 / float64(size)
		}},
		{"PacketsPerSec.Bits = x*FromPacket(size) (cluster limitFor)", func(x, _ float64, size int) (float64, float64) {
			return float64(PacketsPerSec(x).Bits(size)), x * float64(FromPacket(size))
		}},
		{"FromPacket = float64(size*8) (traffic send gaps)", func(_, _ float64, size int) (float64, float64) {
			return float64(FromPacket(size)), float64(size * 8)
		}},
		{"Times(y).Bytes()/1000 = x*y/8/1000 (experiments buffer)", func(x, y float64, _ int) (float64, float64) {
			return BitsPerSec(x).Times(Seconds(y)).Bytes() / 1000, x * y / 8 / 1000
		}},
		{"BitsPerSec.Times = x*y (Measurement utilization)", func(x, y float64, _ int) (float64, float64) {
			return float64(BitsPerSec(x).Times(Seconds(y))), x * y
		}},
		{"PacketsPerSec.Times = x*y (router buckets, tcpmodel.Compute)", func(x, y float64, _ int) (float64, float64) {
			return PacketsPerSec(x).Times(Seconds(y)), x * y
		}},
		{"BitsPerSec.Scale = y*x (pushback target, rolling attack)", func(x, y float64, _ int) (float64, float64) {
			return float64(BitsPerSec(x).Scale(y)), y * x
		}},
	}
	for _, row := range rows {
		bad := 0
		for _, x := range xs {
			for _, y := range ys {
				for _, size := range sizes {
					got, want := row.pair(x, y, size)
					if math.Float64bits(got) != math.Float64bits(want) && bad < 5 {
						bad++
						t.Errorf("%s: x=%v y=%v size=%d: helper %v (%#x), inline %v (%#x)",
							row.name, x, y, size, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
	// tcpmodel.Compute's period reaches 0 only by underflow, and only for
	// a finite positive rate: there Times' guard returns the c*0 it replaced.
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) {
			if got := PacketsPerSec(x).Times(0); math.Float64bits(got) != math.Float64bits(x*0) {
				t.Errorf("PacketsPerSec(%v).Times(0) = %v, inline %v", x, got, x*0)
			}
		}
	}
}
