//go:build ignore

// gen_fuzz_corpus.go regenerates the checked-in fuzz seed corpora under
// testdata/fuzz/. Run from the repo root:
//
//	go run ./internal/wire/gen_fuzz_corpus.go
//
// The seeds put the fuzzers' first executions on the interesting
// boundaries instead of the all-zero input: a minimal valid header, a
// max-length AS path, a capability trailer, and one input per typed
// decode-error shape (ErrShort, ErrVersion, ErrFlags, ErrKind,
// ErrPathLen, ErrLength). FuzzControlFrameDecode gets the same
// treatment for control frames: minimal and maximal valid frames plus
// one seed per typed error (ErrHops, ErrCount, ErrTTL, ...).
// FuzzCaptureLine gets one capture line per accepted variation and per
// rejection shape, each paired with a writer time on a different side of
// the float formatting rule.
package main

import (
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"floc/internal/capability"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/wire"
)

func marshal(h wire.Header) []byte {
	b, err := wire.MarshalAppend(nil, &h)
	if err != nil {
		log.Fatalf("marshal seed: %v", err)
	}
	return b
}

func writeSeed(dir, name, body string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	content := "go test fuzz v1\n" + body
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", filepath.Join(dir, name))
}

func bytesSeed(dir, name string, data []byte) {
	writeSeed(dir, name, "[]byte("+strconv.Quote(string(data))+")\n")
}

func main() {
	maxPath := wire.Header{
		Version: wire.Version1, Kind: netsim.KindData, Src: 0x0a000001,
		Dst: 0x0a000002, Length: 1500, PathLen: wire.MaxPathLen,
	}
	for i := 0; i < wire.MaxPathLen; i++ {
		maxPath.Path[i] = pathid.ASN(64 + i)
	}
	withCap := wire.Header{
		Version: wire.Version1, Flags: wire.FlagCapability | wire.FlagAttack,
		Kind: netsim.KindUDP, Src: 1, Dst: 2, Length: 0xffff, PathLen: 3,
		Cap: capability.Capability{C0: 0x1122334455667788, C1: 0x99aabbccddeeff00, Slot: 7},
	}
	withCap.Path[0], withCap.Path[1], withCap.Path[2] = 64, 7, 1

	valid := marshal(wire.Header{Version: wire.Version1, Kind: netsim.KindSYN, Length: 40})

	mutate := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}

	dir := filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireDecode")
	bytesSeed(dir, "valid-minimal", valid)
	bytesSeed(dir, "valid-max-path", marshal(maxPath))
	bytesSeed(dir, "valid-capability", marshal(withCap))
	bytesSeed(dir, "err-short-fixed", valid[:4])
	bytesSeed(dir, "err-short-trailer", marshal(withCap)[:20])
	bytesSeed(dir, "err-version", mutate(0, wire.Version1+1))
	bytesSeed(dir, "err-flags", mutate(1, 0x80))
	bytesSeed(dir, "err-kind", mutate(2, 0xff))
	bytesSeed(dir, "err-path-len", mutate(3, wire.MaxPathLen+1))
	bytesSeed(dir, "err-zero-length", func() []byte {
		b := append([]byte(nil), valid...)
		b[12], b[13] = 0, 0
		return b
	}())

	// FuzzWireRoundTrip takes decomposed canonical fields:
	// (flags, kind uint8, src, dst uint32, length uint16, pathLen uint8,
	//  c0, c1 uint64, slot uint8, pathSeed uint64).
	rt := func(flags, kind uint8, src, dst uint32, length uint16, pathLen uint8, c0, c1 uint64, slot uint8, seed uint64) string {
		return fmt.Sprintf(
			"uint8(%d)\nuint8(%d)\nuint32(%d)\nuint32(%d)\nuint16(%d)\nuint8(%d)\nuint64(%d)\nuint64(%d)\nuint8(%d)\nuint64(%d)\n",
			flags, kind, src, dst, length, pathLen, c0, c1, slot, seed)
	}
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireRoundTrip")
	writeSeed(dir, "minimal", rt(0, 0, 1, 2, 40, 0, 0, 0, 0, 0))
	writeSeed(dir, "max-path", rt(0, 1, 0xffffffff, 0, 0xffff, wire.MaxPathLen, 0, 0, 0, 0x0123456789abcdef))
	writeSeed(dir, "capability", rt(uint8(wire.FlagCapability), 4, 10, 20, 1500, 3, ^uint64(0), 1, 255, 42))
	writeSeed(dir, "all-flags", rt(0xff, 3, 1, 1, 1, 1, 1, 1, 1, 1))
	writeSeed(dir, "zero-length-clamped", rt(0, 2, 0, 0, 0, 2, 0, 0, 0, 7))

	marshalControl := func(f wire.ControlFrame) []byte {
		b, err := wire.MarshalControlAppend(nil, &f)
		if err != nil {
			log.Fatalf("marshal control seed: %v", err)
		}
		return b
	}
	minimal := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Origin: 1, Seq: 1, TTLMillis: 1000, NumRecords: 1,
	}
	minimal.Records[0] = wire.FeedbackRecord{PathLen: 1, LimitBits: 1_000_000}
	minimal.Records[0].Path[0] = 100
	maximal := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Hops: wire.MaxControlHops, Origin: 0xffffffff, Seq: ^uint64(0),
		TTLMillis: 0xffff, NumRecords: wire.MaxFeedbackRecords,
	}
	for i := 0; i < wire.MaxFeedbackRecords; i++ {
		maximal.Records[i].PathLen = wire.MaxPathLen
		for j := 0; j < wire.MaxPathLen; j++ {
			maximal.Records[i].Path[j] = pathid.ASN(i*wire.MaxPathLen + j)
		}
		maximal.Records[i].LimitBits = uint64(i) << 20
	}
	release := minimal
	release.Records[0].LimitBits = 0

	cv := marshalControl(minimal)
	cmutate := func(i int, v byte) []byte {
		b := append([]byte(nil), cv...)
		b[i] = v
		return b
	}
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzControlFrameDecode")
	bytesSeed(dir, "valid-minimal", cv)
	bytesSeed(dir, "valid-max", marshalControl(maximal))
	bytesSeed(dir, "valid-release", marshalControl(release))
	bytesSeed(dir, "err-short-fixed", cv[:6])
	bytesSeed(dir, "err-short-record", cv[:len(cv)-3])
	bytesSeed(dir, "err-version", cmutate(0, wire.Version1))
	bytesSeed(dir, "err-kind", cmutate(1, 0xee))
	bytesSeed(dir, "err-hops", cmutate(2, wire.MaxControlHops+1))
	bytesSeed(dir, "err-count-zero", cmutate(3, 0))
	bytesSeed(dir, "err-count-over", cmutate(3, wire.MaxFeedbackRecords+1))
	bytesSeed(dir, "err-ttl-zero", func() []byte {
		b := append([]byte(nil), cv...)
		b[16], b[17] = 0, 0
		return b
	}())
	bytesSeed(dir, "err-record-pathlen", cmutate(18, wire.MaxPathLen+1))

	// FuzzCaptureLine takes (line []byte, t float64, header []byte): the
	// line goes to the scanner and the encoding/json reference, (t,
	// header) through the writer and back.
	hx := hex.EncodeToString(valid)
	line := func(t, wire string) string { return `{"t":` + t + `,"wire":"` + wire + `"}` }
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzCaptureLine")
	for _, seed := range []struct {
		name, line string
		t          float64
		header     []byte
	}{
		{"valid", line("0.002", hx), 0.002, valid},
		{"valid-max-path", line("12.5", hex.EncodeToString(marshal(maxPath))), 12.5, marshal(maxPath)},
		{"valid-swapped-members", `{"wire":"` + hx + `","t":1}`, 1, marshal(withCap)},
		{"valid-whitespace", " {\t\"t\" : 1 ,\r \"wire\" : \"" + hx + "\" } \r\n", 0, valid},
		{"valid-negative-zero", line("-0", hx), 1e-7, valid},
		{"valid-exponent", line("1.25E+2", hx), 1e21, valid},
		{"valid-small-exponent", line("1e-7", hx), 1.5e-9, valid},
		{"valid-underflow", line("1e-999", hx), 5e-324, valid},
		{"err-bad-json", "not json", 999999.999999, valid},
		{"err-truncated", `{"t":0.001,"wire":`, 1 << 53, valid},
		{"err-odd-hex", line("1", hx[:len(hx)-1]), 0.3, valid},
		{"err-not-hex", line("1", "zz"), 0.3, valid},
		{"err-oversized-frame", line("1", strings.Repeat("00", wire.MaxEncodedLen+1)), 0.3, valid},
		{"err-trailing-bytes", line("1", hx+"00"), 0.3, valid},
		{"err-trailing-text", line("1", hx) + "x", 0.3, valid},
		{"err-short-frame", line("1", hx[:8]), 0.3, valid},
		{"err-bad-version", line("1", "ff"+hx[2:]), 0.3, valid},
		{"err-number-range", line("1e999", hx), 1.7976931348623157e308, valid},
		{"err-number-leading-zero", line("01", hx), 0.3, valid},
		{"err-number-hex", line("0x1p4", hx), 0.3, valid},
		{"err-number-string", line(`"1"`, hx), 0.3, valid},
		{"narrowed-case-folded-key", `{"T":1,"WIRE":"` + hx + `"}`, 0.3, valid},
		{"narrowed-escaped-key", `{"\u0074":1,"wire":"` + hx + `"}`, 0.3, valid},
		{"narrowed-escaped-hex", line("1", `\u0030`+hx[1:]), 0.3, valid},
		{"narrowed-duplicate-member", `{"t":1,"t":2,"wire":"` + hx + `"}`, 0.3, valid},
		{"narrowed-extra-member", `{"t":1,"wire":"` + hx + `","x":null}`, 0.3, valid},
		{"narrowed-null", `{"t":null,"wire":"` + hx + `"}`, 0.3, valid},
		{"narrowed-missing-member", `{"wire":"` + hx + `"}`, 0.3, valid},
	} {
		writeSeed(dir, seed.name, "[]byte("+strconv.Quote(seed.line)+")\nfloat64("+
			strconv.FormatFloat(seed.t, 'g', -1, 64)+")\n[]byte("+strconv.Quote(string(seed.header))+")\n")
	}
}
