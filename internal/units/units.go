// Package units is FLoc's typed-quantity layer: defined float64 types for
// the physical dimensions the paper's equations mix (bits, bits/second,
// packets/second, seconds), so that the Go compiler rejects the unit slips
// — adding a rate to an amount, passing bits/s where packets/s is wanted —
// that untyped float64 arithmetic hides.
//
// A defined type catches +, -, comparisons and assignment across types,
// but not * or / within one type: Bits*Bits compiles. Every change of
// dimension therefore goes through a method of this package (Per, Times,
// Packets, Bits) or a conversion the reader can see at the call site.
//
// Bytes and bits meet only here: FromPacket, Bytes, BytesPerSec and
// FromBytesPerSec are the conversions, and bitsPerByte is the one 8.
// Code outside this package does not hand-roll `size * 8` or `rate / 8`.
package units

// Bits is an amount of data in bits.
type Bits float64

// BitsPerSec is a data rate in bits per second.
type BitsPerSec float64

// PacketsPerSec is a packet (or token: one token admits one reference
// packet, Section III-D) rate in packets per second.
type PacketsPerSec float64

// Seconds is a duration in seconds of simulation time.
type Seconds float64

// bitsPerByte is the one place in the repository where the 8 lives.
const bitsPerByte = 8

// FromPacket returns the wire size of a packet of sizeBytes bytes, in
// bits. It is the single blessed bytes→bits conversion; every discipline
// that meters traffic volume goes through it.
func FromPacket(sizeBytes int) Bits { return Bits(sizeBytes) * bitsPerByte }

// Bytes returns the amount in bytes.
func (b Bits) Bytes() float64 { return float64(b) / bitsPerByte }

// Per returns the rate that delivers b bits in t seconds. A non-positive
// duration yields 0: amounts observed over an empty window carry no rate.
func (b Bits) Per(t Seconds) BitsPerSec {
	if t <= 0 {
		return 0
	}
	return BitsPerSec(float64(b) / float64(t))
}

// Times returns the amount accumulated at rate r over t seconds.
func (r BitsPerSec) Times(t Seconds) Bits {
	if t <= 0 {
		return 0
	}
	return Bits(float64(r) * float64(t))
}

// Scale returns the rate scaled by the dimensionless factor f (water-fill
// shares, release factors, utilization targets).
func (r BitsPerSec) Scale(f float64) BitsPerSec { return BitsPerSec(float64(r) * f) }

// BytesPerSec returns the rate in bytes per second: what a transmitter
// that serializes packets sized in bytes divides by.
func (r BitsPerSec) BytesPerSec() float64 { return float64(r) / bitsPerByte }

// FromBytesPerSec returns a rate of b bytes per second in bits per second.
func FromBytesPerSec(b float64) BitsPerSec { return BitsPerSec(b * bitsPerByte) }

// Packets returns the rate in packets of sizeBytes bytes per second.
func (r BitsPerSec) Packets(sizeBytes int) PacketsPerSec {
	return PacketsPerSec(r.BytesPerSec() / float64(sizeBytes))
}

// Bits returns the rate in bits per second when every packet is sizeBytes
// bytes.
func (r PacketsPerSec) Bits(sizeBytes int) BitsPerSec {
	return BitsPerSec(float64(r) * float64(FromPacket(sizeBytes)))
}

// Times returns the packet count accumulated at rate r over t seconds.
func (r PacketsPerSec) Times(t Seconds) float64 {
	if t <= 0 {
		return 0
	}
	return float64(r) * float64(t)
}
