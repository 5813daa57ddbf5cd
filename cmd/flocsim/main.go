// Command flocsim regenerates the paper's evaluation, one figure per run,
// printing the figure's data series as TSV (or JSON with -format json):
// the packet-level figures 2-10 of Section VI and the topology summaries
// and Internet-scale figures 11-15 of Section VII.
//
// Usage:
//
//	flocsim -fig 6b [-scale 0.1] [-seed 7]
//	flocsim -fig 8 -rates 0.2,0.4,0.8,1.6,2.4,3.2,4.0
//	flocsim -fig 10 -fanouts 1,4,8,12,20
//	flocsim -fig 13 [-scale 0.1] [-seed 42] [-metrics]
//
// Besides the figures, -scenario runs one attack scenario and prints the
// router's snapshot, optionally with full observability output:
//
//	flocsim -scenario floc:cbr -metrics -ledger dir
//	floctrace replay -ledger dir
//
// -metrics appends the metric registry in Prometheus text format (of a
// scenario or figs 13-15); -ledger seals the FLoc router's typed events
// into a ledger directory with the run's final snapshot, exactly as
// flocd -ledger does, so floctrace verifies and replays a simulated run
// like a daemon's. An unknown -format, -fig with -scenario, -metrics on
// a figure but 13-15 and -ledger without a floc:… scenario are usage
// errors (exit 2).
//
// Scale 1.0 reproduces the paper's full size (500 Mb/s target link, 810
// legitimate sources, 360 bots, 80 simulated seconds; 10,000 legitimate
// sources and 100,000 bots for figs 13-15) and takes minutes per run;
// the default 0.1 preserves all rate ratios and runs in seconds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"floc/internal/experiments"
	"floc/internal/ledger"
	"floc/internal/telemetry"
	"floc/internal/units"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs one command line and returns the exit status: 0 on success,
// 1 when the run fails, 2 on a usage error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate: 2, 3, 4, 6a, 6b, 6c, 7, 8, 9, 10, 11, 12, 13, 14, 15; extensions: timed, deploy, rep")
	scale := fs.Float64("scale", 0.1, "topology scale in (0,1]; 1.0 = paper scale")
	seed := fs.Uint64("seed", 7, "random seed")
	rates := fs.String("rates", "0.4,0.8,2.0,4.0", "per-bot attack rates in Mb/s (figs 7, 8)")
	fanouts := fs.String("fanouts", "1,4,8,12,20", "covert per-source fanouts (fig 10)")
	format := fs.String("format", "tsv", "output format: tsv or json")
	seeds := fs.String("seeds", "1,2,3", "comma-separated seeds for -fig rep")
	scenario := fs.String("scenario", "", "run one scenario instead of a figure: defense:attack (e.g. floc:cbr)")
	duration := fs.Float64("duration", 30, "scenario duration in simulated seconds (-scenario only)")
	metrics := fs.Bool("metrics", false, "print the metric registry in Prometheus text format after the run (-scenario, figs 13-15)")
	ledgerDir := fs.String("ledger", "", "seal the run's events and final snapshot into this new ledger directory (-scenario floc:… only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has already said why
	}
	if *fig == "" && *scenario == "" {
		fs.Usage()
		return 2
	}
	if err := checkFlags(*fig, *scenario, *format, *metrics, *ledgerDir); err != nil {
		fmt.Fprintln(stderr, "flocsim:", err)
		return 2
	}

	if *scenario != "" {
		if err := runScenario(stdout, *scenario, *scale, *seed, *duration, *metrics, *ledgerDir); err != nil {
			fmt.Fprintln(stderr, "flocsim:", err)
			return 1
		}
		return 0
	}
	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
	}
	table, err := run(*fig, *scale, *seed, *rates, *fanouts, *seeds, reg)
	if err == nil {
		err = writeTable(stdout, table, *format)
	}
	if err == nil && reg != nil {
		fmt.Fprintln(stdout)
		err = reg.WriteText(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "flocsim:", err)
		return 1
	}
	return 0
}

// checkFlags rejects the combinations the run would otherwise ignore.
func checkFlags(fig, scenario, format string, metrics bool, ledgerDir string) error {
	switch {
	case format != "tsv" && format != "json":
		return fmt.Errorf("-format %q: want tsv or json", format)
	case fig != "" && scenario != "":
		return fmt.Errorf("-fig and -scenario are exclusive")
	case metrics && fig != "" && fig != "13" && fig != "14" && fig != "15":
		return fmt.Errorf("-metrics applies to -scenario and figs 13-15, not fig %s", fig)
	case ledgerDir != "" && !strings.HasPrefix(scenario, string(experiments.DefFLoc)+":"):
		return fmt.Errorf("-ledger requires a -scenario floc:…: only FLoc emits events")
	}
	return nil
}

// writeTable prints t as TSV or as indented JSON.
func writeTable(w io.Writer, t *experiments.Table, format string) error {
	if format != "json" {
		_, err := io.WriteString(w, t.String())
		return err
	}
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// parseScenario splits a "defense:attack" spec into its kinds.
func parseScenario(spec string) (experiments.DefenseKind, experiments.AttackKind, error) {
	def, atk, ok := strings.Cut(spec, ":")
	if !ok || def == "" || atk == "" {
		return "", "", fmt.Errorf("scenario %q not of the form defense:attack", spec)
	}
	return experiments.DefenseKind(def), experiments.AttackKind(atk), nil
}

// runScenario executes one scenario with the paper's FLoc defaults
// (SMax 25, NMax 2) and prints the class shares plus, for FLoc, the
// router snapshot; -metrics adds the registry dump, and -ledger seals
// the run's events into ledgerDir.
func runScenario(w io.Writer, spec string, scale float64, seed uint64, duration float64, metrics bool, ledgerDir string) error {
	def, atk, err := parseScenario(spec)
	if err != nil {
		return err
	}
	sc := experiments.DefaultScenario(def, atk, scale)
	sc.Seed = seed
	sc.Duration = duration
	sc.MeasureFrom = duration / 4
	sc.SMax = 25
	sc.NMax = 2
	var sealer *ledger.Sealer
	if ledgerDir != "" {
		if sealer, err = ledger.NewSealer(ledgerDir); err != nil {
			return err
		}
		sc.Sink = sealer
	}
	m, err := experiments.Run(sc)
	if err != nil {
		if sealer != nil {
			sealer.Close()
		}
		return err
	}
	fmt.Fprintf(w, "scenario %s scale=%v seed=%d duration=%vs\n", spec, scale, seed, duration)
	fmt.Fprintf(w, "utilization=%.3f legit/legit-path=%.3f legit/attack-path=%.3f attack=%.3f\n",
		m.Utilization,
		m.ClassShare(experiments.ClassLegitLegit),
		m.ClassShare(experiments.ClassLegitAttackPath),
		m.ClassShare(experiments.ClassAttack))
	if def == experiments.DefFLoc {
		fmt.Fprint(w, m.FLocSnapshot.String())
	}
	if sealer != nil {
		if err := sealer.CloseWithSnapshot(m.FLocSnapshot); err != nil {
			return err
		}
		head := sealer.Head()
		fmt.Fprintf(w, "ledger: sealed %d segments (%d events) in %s; head %x\n",
			sealer.Segments(), sealer.Events(), ledgerDir, head[:])
	}
	if metrics {
		fmt.Fprintln(w)
		return m.Tel.Registry.WriteText(w)
	}
	return nil
}

// run regenerates one figure; reg, when non-nil, receives the counters
// of the Internet-scale figures' simulations.
func run(fig string, scale float64, seed uint64, rates, fanouts, seeds string, reg *telemetry.Registry) (*experiments.Table, error) {
	switch fig {
	case "2":
		return experiments.Fig2(scale, seed)
	case "3":
		return experiments.Fig3(scale, seed)
	case "4":
		return experiments.Fig4(10, 8), nil
	case "6a":
		t, _, err := experiments.Fig6(experiments.AttackTCPPop, scale, seed)
		return t, err
	case "6b":
		t, _, err := experiments.Fig6(experiments.AttackCBR, scale, seed)
		return t, err
	case "6c":
		t, _, err := experiments.Fig6(experiments.AttackShrew, scale, seed)
		return t, err
	case "7":
		r, err := parseRates(rates)
		if err != nil {
			return nil, err
		}
		return experiments.Fig7(scale, r, seed)
	case "8":
		r, err := parseRates(rates)
		if err != nil {
			return nil, err
		}
		return experiments.Fig8(scale, r, seed)
	case "9":
		return experiments.Fig9(scale, seed)
	case "10":
		f, err := parseInts(fanouts)
		if err != nil {
			return nil, err
		}
		return experiments.Fig10(scale, f, seed)
	case "11":
		return experiments.FigTopology(100, false, seed)
	case "12":
		return experiments.FigTopology(300, false, seed)
	case "13", "14", "15":
		cfg, err := experiments.DefaultInetFigConfig("fig"+fig, scale)
		if err != nil {
			return nil, err
		}
		cfg.Seed = seed
		cfg.Registry = reg
		return experiments.FigInternet(cfg)
	case "timed":
		return experiments.FigTimed(scale, seed)
	case "deploy":
		return experiments.FigDeployment(scale, []float64{0.25, 0.5, 0.75, 1.0}, seed)
	case "rep":
		// Multi-seed replication of the headline CBR comparison: mean
		// and standard deviation of each class share per defense.
		seedList, err := parseSeeds(seeds)
		if err != nil {
			return nil, err
		}
		t := &experiments.Table{
			Title:   "Replication: CBR attack class shares, mean±std across seeds",
			Columns: experiments.ReplicationColumns,
		}
		for _, def := range []experiments.DefenseKind{experiments.DefFLoc, experiments.DefPushback, experiments.DefREDPD, experiments.DefDropTail} {
			sc := experiments.DefaultScenario(def, experiments.AttackCBR, scale)
			rep, err := experiments.Replicate(sc, seedList)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, rep.Row(string(def)))
		}
		return t, nil
	default:
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
}

func parseRates(s string) ([]units.BitsPerSec, error) {
	var out []units.BitsPerSec
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", part, err)
		}
		out = append(out, units.BitsPerSec(v*1e6))
	}
	return out, nil
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad int %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
