// Control frames are the flocd-to-flocd control plane's wire form: a
// flooded downstream router pushes per-path rate limits upstream as
// congestion-feedback records (NetFence's observation that the policing
// feedback must travel in-band to reach the enforcement points), and the
// upstream daemon installs them ahead of admission. The codec follows the
// data-header discipline exactly: fixed-size arrays so Decode allocates
// nothing, strict validation of every field, typed sentinel errors, and
// fuzz-enforced decode–reencode identity (FuzzControlFrameDecode).
//
// A control frame leads with ControlVersion1 (0xF1), deliberately
// disjoint from the data header's version byte, so a frame misdelivered
// to the data port (or vice versa) fails fast on either codec instead of
// being half-understood.
//
// Layout (big-endian, lengths in bytes):
//
//	offset  size  field
//	0       1     version (ControlVersion1)
//	1       1     kind (1 = congestion feedback)
//	2       1     hops: remaining upstream propagation budget (0..8)
//	3       1     record count n (1..32)
//	4       4     origin router ID
//	8       8     sequence number (monotone per origin)
//	16      2     TTL in milliseconds (> 0): installed limits expire
//	              TTL after application unless refreshed
//	18      ...   n feedback records
//
// Feedback record:
//
//	offset  size  field
//	0       1     path length p (0..16; 0 = the synthetic unknown path)
//	1       4*p   path identifier, origin domain first
//	1+4*p   8     rate limit in bits/second (0 = release the limit)
package wire

import (
	"encoding/binary"

	"floc/internal/pathid"
	"floc/internal/units"
)

// ControlVersion1 is the only control-frame version this codec speaks.
// It shares no value with Version1: the two codecs must never accept
// each other's frames.
const ControlVersion1 = 0xF1

// ControlFeedback is the only defined control frame kind: a batch of
// congestion-feedback records.
const ControlFeedback = 1

// MaxFeedbackRecords bounds the records one frame can carry; a larger
// limit set is split across frames by the sender.
const MaxFeedbackRecords = 32

// MaxControlHops bounds the upstream propagation budget, so a routing
// loop among misconfigured peers cannot circulate a frame forever.
const MaxControlHops = 8

// Byte budgets of the control regions.
const (
	controlFixedLen      = 18                                                // bytes
	recordFixedLen       = 9                                                 // bytes (path length + limit)
	maxRecordLen         = recordFixedLen + 4*MaxPathLen                     // bytes
	MaxControlEncodedLen = controlFixedLen + MaxFeedbackRecords*maxRecordLen // bytes
)

// FeedbackRecord is one per-path rate-limit directive. The path lives in
// a fixed-size array (like Header.Path) so decoding allocates nothing; a
// zero LimitBits releases any installed limit for the path.
type FeedbackRecord struct {
	PathLen   uint8
	Path      [MaxPathLen]pathid.ASN
	LimitBits uint64 // bits/s; Limit returns it typed
}

// SetPath copies a path identifier into the record's fixed array.
func (r *FeedbackRecord) SetPath(path pathid.PathID) error {
	if len(path) > MaxPathLen {
		return errRange(ErrPathLen, len(path), MaxPathLen)
	}
	r.PathLen = uint8(len(path))
	r.Path = [MaxPathLen]pathid.ASN{}
	copy(r.Path[:], path)
	return nil
}

// PathID returns a freshly allocated path identifier for the record.
func (r *FeedbackRecord) PathID() pathid.PathID {
	return pathid.New(r.Path[:r.PathLen]...)
}

// Limit returns the record's rate limit as a typed quantity.
func (r *FeedbackRecord) Limit() units.BitsPerSec {
	return units.BitsPerSec(r.LimitBits)
}

// ControlFrame is the decoded control frame. Records live in a fixed-size
// array so decoding allocates nothing; NumRecords says how many leading
// entries are valid. The struct is comparable, so tests can assert
// decode–reencode identity with ==.
type ControlFrame struct {
	Version   uint8
	Kind      uint8
	Hops      uint8
	Origin    uint32 // router ID of the advertising daemon
	Seq       uint64 // monotone per origin; stale sequences are never applied
	TTLMillis uint16 // limit lifetime in milliseconds after application

	NumRecords uint8
	Records    [MaxFeedbackRecords]FeedbackRecord
}

// TTL returns the frame's limit lifetime as seconds.
func (f *ControlFrame) TTL() float64 { return float64(f.TTLMillis) / 1000 }

// ControlEncodedLen returns the exact number of bytes
// MarshalControlAppend would write.
func (f *ControlFrame) ControlEncodedLen() int {
	n := controlFixedLen
	for i := 0; i < int(f.NumRecords); i++ {
		n += recordFixedLen + 4*int(f.Records[i].PathLen)
	}
	return n
}

// validateControl checks the frame's encodable range; shared by
// MarshalControlAppend (reject before writing) and DecodeControl (reject
// foreign input).
func validateControl(f *ControlFrame) error {
	if f.Version != ControlVersion1 {
		return errValue(ErrVersion, int(f.Version))
	}
	if f.Kind != ControlFeedback {
		return errValue(ErrKind, int(f.Kind))
	}
	if f.Hops > MaxControlHops {
		return errRange(ErrHops, int(f.Hops), MaxControlHops)
	}
	if f.NumRecords == 0 || int(f.NumRecords) > MaxFeedbackRecords {
		return errRange(ErrCount, int(f.NumRecords), MaxFeedbackRecords)
	}
	if f.TTLMillis == 0 {
		return errZeroTTL()
	}
	return nil
}

// checkRecordPathLen range-checks one on-wire record path length; the
// per-record walk must not trust it as a loop bound before this.
func checkRecordPathLen(p int) error {
	if p > MaxPathLen {
		return errRange(ErrPathLen, p, MaxPathLen)
	}
	return nil
}

// MarshalControlAppend appends the encoded frame to dst and returns the
// extended slice. It does not allocate when dst has spare capacity
// (allocate once with make([]byte, 0, wire.MaxControlEncodedLen) and
// reuse).
func MarshalControlAppend(dst []byte, f *ControlFrame) ([]byte, error) {
	if err := validateControl(f); err != nil {
		return dst, err
	}
	for i := 0; i < int(f.NumRecords); i++ {
		if int(f.Records[i].PathLen) > MaxPathLen {
			return dst, errRange(ErrPathLen, int(f.Records[i].PathLen), MaxPathLen)
		}
	}
	dst = append(dst, f.Version, f.Kind, f.Hops, f.NumRecords)
	dst = binary.BigEndian.AppendUint32(dst, f.Origin)
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint16(dst, f.TTLMillis)
	for i := 0; i < int(f.NumRecords); i++ {
		r := &f.Records[i]
		dst = append(dst, r.PathLen)
		for j := 0; j < int(r.PathLen); j++ {
			dst = binary.BigEndian.AppendUint32(dst, uint32(r.Path[j]))
		}
		dst = binary.BigEndian.AppendUint64(dst, r.LimitBits)
	}
	return dst, nil
}

// DecodeControl parses one control frame from the front of buf into f and
// returns the number of bytes consumed. On error it returns 0 and leaves
// f in an unspecified state; it never panics and never retains buf.
// Trailing bytes are the caller's concern (a control datagram carries
// exactly one frame).
//
// DecodeControl is the validation boundary for control-channel bytes: buf
// is peer-controlled (and a peer may itself be fed by an attacker) until
// every field is range-checked.
func DecodeControl(buf []byte, f *ControlFrame) (int, error) {
	if len(buf) < controlFixedLen {
		return 0, errShort(len(buf), controlFixedLen)
	}
	*f = ControlFrame{
		Version:    buf[0],
		Kind:       buf[1],
		Hops:       buf[2],
		NumRecords: buf[3],
		Origin:     binary.BigEndian.Uint32(buf[4:8]),
		Seq:        binary.BigEndian.Uint64(buf[8:16]),
		TTLMillis:  binary.BigEndian.Uint16(buf[16:18]),
	}
	// Validate before trusting NumRecords to size the remainder of the
	// walk; per-record path lengths are checked as they are reached.
	if err := validateControl(f); err != nil {
		return 0, err
	}
	n := controlFixedLen
	for i := 0; i < int(f.NumRecords); i++ {
		if len(buf) < n+1 {
			return 0, errShort(len(buf), n+1)
		}
		p := int(buf[n])
		if err := checkRecordPathLen(p); err != nil {
			return 0, err
		}
		need := n + recordFixedLen + 4*p
		if len(buf) < need {
			return 0, errShort(len(buf), need)
		}
		r := &f.Records[i]
		r.PathLen = uint8(p)
		n++
		for j := 0; j < p; j++ {
			r.Path[j] = pathid.ASN(binary.BigEndian.Uint32(buf[n : n+4]))
			n += 4
		}
		r.LimitBits = binary.BigEndian.Uint64(buf[n : n+8])
		n += 8
	}
	return n, nil
}
