// Command floctrace is the forensic toolchain for FLoc event ledgers
// (package ledger), as sealed by flocd -ledger or flocsim -ledger:
// verifying a sealed ledger byte-for-byte, and replaying the sealed
// events against the Snapshot the run claims to have ended in.
//
//	floctrace verify -ledger ledgerdir
//	floctrace replay -ledger ledgerdir [-snapshot snapshot.json]
//
// verify recomputes every segment's Merkle root from the stored bytes,
// checks the record hash chain, decodes every sealed line, and fails
// with a typed error naming the offending segment. replay is verify plus
// the replay-equals-snapshot fold: the sealed events are folded into the
// router state they imply, and any disagreement with the claimed
// snapshot is printed one line per field. Exit status is 0 only when
// everything checks out.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"floc/internal/ledger"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "floctrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: floctrace <verify|replay> [flags]")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "verify":
		return runVerify(rest, out)
	case "replay":
		return runReplay(rest, out)
	default:
		return fmt.Errorf("unknown subcommand %q (want verify or replay)", cmd)
	}
}

// runVerify checks a ledger end-to-end and prints the report.
func runVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	dir := fs.String("ledger", "", "ledger directory to verify (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("verify: -ledger is required")
	}
	rep, _, err := ledger.Verify(*dir)
	if err != nil {
		return err
	}
	printReport(out, rep)
	return nil
}

// runReplay verifies, decodes, folds, and diffs against the claimed
// snapshot. Any diff is an error: the evidence does not support the claim.
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	dir := fs.String("ledger", "", "ledger directory to replay (required)")
	snapPath := fs.String("snapshot", "", "claimed snapshot JSON (default <ledger>/"+ledger.SnapshotName+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("replay: -ledger is required")
	}
	if *snapPath == "" {
		*snapPath = filepath.Join(*dir, ledger.SnapshotName)
	}
	rep, events, err := ledger.Verify(*dir)
	if err != nil {
		return err
	}
	printReport(out, rep)
	snap, err := ledger.ReadSnapshot(*snapPath)
	if err != nil {
		return err
	}
	res := ledger.Replay(events)
	if diffs := res.Diff(snap); len(diffs) != 0 {
		return fmt.Errorf("replayed events do not reproduce the claimed snapshot:\n  %s",
			strings.Join(diffs, "\n  "))
	}
	fmt.Fprintf(out, "replay matches claimed snapshot: %d events -> admitted %d, dropped %d, %d control runs, mode %s\n",
		res.Events, res.Admitted, res.Dropped, res.ControlRuns, res.Mode)
	return nil
}

// printReport renders a verification report, head last so the anchor
// value is the easiest line to copy out.
func printReport(out io.Writer, rep *ledger.VerifyReport) {
	fmt.Fprintf(out, "verified %d segments, %d events, %d files\nhead %x\n",
		rep.Segments, rep.Events, rep.Files, rep.Head[:])
}
