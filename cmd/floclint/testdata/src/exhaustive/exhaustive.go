// Package exhaustive seeds violations of the exhaustive rule: switches
// over a //floc:enum type that omit members, a default clause standing
// in for coverage (it does not count), a reasonless waiver, member
// collection across separate const blocks, and a misspelt mark.
package exhaustive

// Kind dispatches frame handling; the set is closed by contract.
//
// floc:enum
type Kind uint8

// Kind members; numKinds is a count sentinel, not a member.
const (
	KindA Kind = iota + 1
	KindB
	KindC
	numKinds //floc:enumbound
)

// missing omits KindC.
func missing(k Kind) int {
	switch k { // WANT exhaustive
	case KindA:
		return 1
	case KindB:
		return 2
	}
	return 0
}

// defaulted hides missing members behind a default: defaults are for
// out-of-range cast values, not members, so this still reports.
func defaulted(k Kind) int {
	switch k { // WANT exhaustive
	case KindA:
		return 1
	default:
		return 0
	}
}

// unreasoned waives without saying why: the reason is mandatory, and
// the reasonless waiver does not suppress the coverage finding either.
func unreasoned(k Kind) int {
	//floc:nonexhaustive // WANT exhaustive
	switch k { // WANT exhaustive
	case KindA:
		return 1
	}
	return 0
}

// Reason labels drop causes.
//
// floc:enum
type Reason int

// Core reasons.
const (
	ReasonNone Reason = iota
	ReasonOverflow
)

// ReasonFiltered extends the set from a separate const block: members
// are collected across blocks, so this switch is short one member.
const ReasonFiltered Reason = 7

// overReason misses the extension member.
func overReason(r Reason) string {
	switch r { // WANT exhaustive
	case ReasonNone, ReasonOverflow:
		return "ok"
	}
	return ""
}

// covered names every Kind member; the default for cast garbage is
// fine on top of full coverage.
func covered(k Kind) int {
	switch k {
	case KindA, KindB:
		return 1
	case KindC:
		return 2
	default:
		return 0
	}
}

// subset deliberately handles the handshake kinds only, with a reason.
func subset(k Kind) int {
	//floc:nonexhaustive payload kinds are dispatched by the data path
	switch k {
	case KindA:
		return 1
	}
	return 0
}

// plain is not marked //floc:enum: partial switches over it are not
// the rule's business.
type plain int

const (
	p1 plain = iota
	p2
)

func overPlain(p plain) int {
	switch p {
	case p1:
		return 1
	}
	return 0
}

// misspelt means floc:enum, but no rule reads the name it spells: the
// misspelling is the finding, and the partial switch below goes unchecked.
//
// floc:enmu // WANT directive
type misspelt int

const (
	m1 misspelt = iota
	m2
)

func overMisspelt(m misspelt) int {
	switch m {
	case m1:
		return 1
	}
	return 0
}
