//go:build ignore

// gen_fuzz_corpus.go regenerates the checked-in fuzz seed corpora under
// testdata/fuzz/. Run from the repo root:
//
//	go run ./internal/wire/gen_fuzz_corpus.go
//
// The seeds put the fuzzers' first executions on the interesting
// boundaries instead of the all-zero input: a minimal valid header, a
// max-length AS path, a frame with a capability trailer as older speakers
// sent it (refused: its flag, bit 0, is unknown), and one input per typed
// decode-error shape (ErrShort, ErrVersion, ErrFlags, ErrKind,
// ErrPathLen, ErrLength). FuzzControlFrameDecode gets the same
// treatment for control frames: minimal and maximal valid frames plus
// one seed per typed error (ErrHops, ErrCount, ErrTTL, ...).
// FuzzCaptureRecord gets one capture record per way a record breaks, a
// run of good records, and times on the edges of the writer's exact
// nanosecond rule. FuzzCaptureLine gets the records and times of the
// seeds it had when records were text lines, under the same names.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"

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
	threeHop := wire.Header{
		Version: wire.Version1, Flags: wire.FlagAttack,
		Kind: netsim.KindUDP, Src: 1, Dst: 2, Length: 0xffff, PathLen: 3,
	}
	threeHop.Path[0], threeHop.Path[1], threeHop.Path[2] = 64, 7, 1
	// withCap is threeHop as a speaker of the capability trailer sent it:
	// flag bit 0 set and C0 (8 bytes), C1 (8) and a slot (1) appended.
	withCap := marshal(threeHop)
	withCap[1] |= 1 << 0
	withCap = binary.BigEndian.AppendUint64(withCap, 0x1122334455667788)
	withCap = binary.BigEndian.AppendUint64(withCap, 0x99aabbccddeeff00)
	withCap = append(withCap, 7)

	valid := marshal(wire.Header{Version: wire.Version1, Kind: netsim.KindSYN, Length: 40})

	mutate := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}

	dir := filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireDecode")
	bytesSeed(dir, "valid-minimal", valid)
	bytesSeed(dir, "valid-max-path", marshal(maxPath))
	bytesSeed(dir, "err-short-fixed", valid[:4])
	bytesSeed(dir, "err-short-trailer", marshal(threeHop)[:20]) // cut in the path
	bytesSeed(dir, "err-version", mutate(0, wire.Version1+1))
	bytesSeed(dir, "err-flags", mutate(1, 0x80))
	bytesSeed(dir, "err-flag-bit0", withCap)
	bytesSeed(dir, "err-kind", mutate(2, 0xff))
	bytesSeed(dir, "err-path-len", mutate(3, wire.MaxPathLen+1))
	bytesSeed(dir, "err-zero-length", func() []byte {
		b := append([]byte(nil), valid...)
		b[12], b[13] = 0, 0
		return b
	}())

	// FuzzWireRoundTrip takes decomposed canonical fields:
	// (flags, kind uint8, src, dst uint32, length uint16, pathLen uint8,
	//  pathSeed uint64).
	rt := func(flags, kind uint8, src, dst uint32, length uint16, pathLen uint8, seed uint64) string {
		return fmt.Sprintf(
			"uint8(%d)\nuint8(%d)\nuint32(%d)\nuint32(%d)\nuint16(%d)\nuint8(%d)\nuint64(%d)\n",
			flags, kind, src, dst, length, pathLen, seed)
	}
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireRoundTrip")
	writeSeed(dir, "minimal", rt(0, 0, 1, 2, 40, 0, 0))
	writeSeed(dir, "max-path", rt(0, 1, 0xffffffff, 0, 0xffff, wire.MaxPathLen, 0x0123456789abcdef))
	// Bit 0 alone, the capability flag's old place: masked off as unknown.
	writeSeed(dir, "capability", rt(1<<0, 4, 10, 20, 1500, 3, 42))
	writeSeed(dir, "all-flags", rt(0xff, 3, 1, 1, 1, 1, 1))
	writeSeed(dir, "zero-length-clamped", rt(0, 2, 0, 0, 0, 2, 7))

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

	// FuzzCaptureRecord takes (tbits uint64, header []byte, records
	// []byte): the header is written at float64(tbits&(2^51-1))/1e9 and at
	// the float64 tbits is, and read back; the records follow a global
	// header into both readers.
	record := func(sec, nsec, incl, orig uint32, frame []byte) []byte {
		le := binary.LittleEndian
		b := le.AppendUint32(le.AppendUint32(nil, sec), nsec)
		return append(le.AppendUint32(le.AppendUint32(b, incl), orig), frame...)
	}
	// whole is a well-formed record of frame.
	whole := func(sec, nsec uint32, frame []byte) []byte {
		return record(sec, nsec, uint32(len(frame)), uint32(len(frame)), frame)
	}
	n := uint32(len(valid))
	good := whole(0, 2_000_000, valid)
	capSeed := func(name string, tbits uint64, header []byte, records ...[]byte) {
		var recs []byte
		for _, r := range records {
			recs = append(recs, r...)
		}
		writeSeed(filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzCaptureRecord"), name,
			fmt.Sprintf("uint64(%d)\n[]byte(%s)\n[]byte(%s)\n", tbits, strconv.Quote(string(header)), strconv.Quote(string(recs))))
	}
	grid := math.Float64bits(float64(999_999) * 20 / 1e6)
	capSeed("valid", grid, valid, good)
	capSeed("valid-max-path", math.Float64bits(86400.000000001), marshal(maxPath), whole(86400, 1, marshal(maxPath)))
	capSeed("err-flag-bit0", math.Float64bits(0), withCap, good, good, whole(1, 999_999_999, withCap))
	tenth := 0.1 // a variable, so that the sum is rounded as float64s, not folded exactly
	capSeed("time-inexact-sum", math.Float64bits(tenth+0.2), valid, good)
	capSeed("time-negative-zero", math.Float64bits(math.Copysign(0, -1)), valid, good)
	capSeed("time-2-53-ns", math.Float64bits(float64(1<<53)/1e9), valid, good)
	capSeed("time-nan", math.Float64bits(math.NaN()), valid, good)
	capSeed("err-version", grid, valid, whole(0, 0, mutate(0, wire.Version1+1)), good)
	capSeed("err-short-frame", grid, valid, whole(0, 0, valid[:4]), good)
	capSeed("err-trailing-bytes", grid, valid, whole(0, 0, append(append([]byte(nil), valid...), 0)), good)
	capSeed("err-oversized-frame", grid, valid, whole(0, 0, make([]byte, wire.MaxEncodedLen+1)), good)
	capSeed("err-nanoseconds", grid, valid, record(0, 1e9, n, n, valid), good)
	capSeed("err-time-range", grid, valid, whole(9_007_199, 254_740_992, valid), good)
	capSeed("err-truncated-packet", grid, valid, record(0, 0, n, n+1, valid), good)
	capSeed("err-header-cut", grid, valid, good, good[:7])
	capSeed("err-frame-cut", grid, valid, good, good[:len(good)-1])
	capSeed("err-length-past-end", grid, valid, record(0, 0, 0xffffffff, 0xffffffff, valid), good)

	// FuzzCaptureLine takes (records []byte, t float64, header []byte):
	// the records follow a global header into the strict reader and the
	// reference; the header is written at t. Each seed is the record that
	// holds or breaks as the text line of the same name did.
	lineSeed := func(name string, at float64, header []byte, records ...[]byte) {
		var recs []byte
		for _, r := range records {
			recs = append(recs, r...)
		}
		writeSeed(filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzCaptureLine"), name,
			fmt.Sprintf("[]byte(%s)\nmath.Float64frombits(%#x)\n[]byte(%s)\n", strconv.Quote(string(recs)), math.Float64bits(at), strconv.Quote(string(header))))
	}
	lineSeed("valid", 0.002, valid, good)
	lineSeed("valid-max-path", 12.5, marshal(maxPath), whole(12, 500_000_000, marshal(maxPath)))
	lineSeed("valid-exponent", 1e21, valid, whole(125, 0, valid))
	lineSeed("valid-negative-zero", math.Copysign(0, -1), valid, whole(0, 0, valid))
	lineSeed("valid-small-exponent", 1.5e-9, valid, whole(0, 100, valid))
	lineSeed("valid-underflow", 5e-324, valid, whole(0, 0, valid))
	lineSeed("err-bad-version", 0.3, valid, whole(1, 0, mutate(0, wire.Version1+1)), good)
	lineSeed("err-short-frame", 0.3, valid, whole(1, 0, valid[:4]), good)
	lineSeed("err-trailing-bytes", 0.3, valid, whole(1, 0, append(append([]byte(nil), valid...), 0)), good)
	lineSeed("err-oversized-frame", 0.3, valid, whole(1, 0, make([]byte, wire.MaxEncodedLen+1)), good)
	lineSeed("err-number-range", math.MaxFloat64, valid, record(1, 1e9, n, n, valid), good)
	lineSeed("err-truncated", float64(1<<53)/1e9, valid, good, good[:len(good)-1])
	lineSeed("err-trailing-text", 0.3, valid, good, good[:7])
}
