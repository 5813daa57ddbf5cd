package wire

import "errors"

// ErrorKind classifies the codec's typed errors into a closed set, so
// tooling that aggregates malformed input (the capture reader's
// per-kind malformed-line counts, a future pushback-frame parser) can
// switch over the classification and be held exhaustive when the
// congestion-feedback frames add error shapes.
//
//floc:enum
type ErrorKind uint8

// Error kinds. ErrKindNone classifies nil and foreign errors;
// ErrKindFraming classifies capture-stream records broken before the
// codec ever saw bytes (bad NDJSON, bad hex).
const (
	ErrKindNone ErrorKind = iota
	ErrKindShort
	ErrKindVersion
	ErrKindFlags
	ErrKindKind
	ErrKindPathLen
	ErrKindLength
	ErrKindSlot
	ErrKindFraming
	ErrKindHops
	ErrKindCount
	ErrKindTTL
	NumErrorKinds //floc:enumbound
)

// String returns the kind's stable label, used as the reason tag on
// malformed-input counters.
func (k ErrorKind) String() string {
	switch k {
	case ErrKindNone:
		return "none"
	case ErrKindShort:
		return "short"
	case ErrKindVersion:
		return "version"
	case ErrKindFlags:
		return "flags"
	case ErrKindKind:
		return "kind"
	case ErrKindPathLen:
		return "pathlen"
	case ErrKindLength:
		return "length"
	case ErrKindSlot:
		return "slot"
	case ErrKindFraming:
		return "framing"
	case ErrKindHops:
		return "hops"
	case ErrKindCount:
		return "count"
	case ErrKindTTL:
		return "ttl"
	default:
		return "unknown"
	}
}

// KindOfError maps an error to its kind: the sentinel it wraps, or
// ErrKindNone for nil and errors from outside the codec.
func KindOfError(err error) ErrorKind {
	switch {
	case err == nil:
		return ErrKindNone
	case errors.Is(err, ErrShort):
		return ErrKindShort
	case errors.Is(err, ErrVersion):
		return ErrKindVersion
	case errors.Is(err, ErrFlags):
		return ErrKindFlags
	case errors.Is(err, ErrKind):
		return ErrKindKind
	case errors.Is(err, ErrPathLen):
		return ErrKindPathLen
	case errors.Is(err, ErrLength):
		return ErrKindLength
	case errors.Is(err, ErrSlot):
		return ErrKindSlot
	case errors.Is(err, ErrHops):
		return ErrKindHops
	case errors.Is(err, ErrCount):
		return ErrKindCount
	case errors.Is(err, ErrTTL):
		return ErrKindTTL
	default:
		return ErrKindNone
	}
}
