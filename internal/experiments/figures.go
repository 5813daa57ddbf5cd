package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"floc/internal/stats"
	"floc/internal/tcpmodel"
	"floc/internal/units"
)

// Table is a figure's data in printable form: one row per series point.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one labeled data row.
type Row struct {
	Label  string
	Values []float64
}

// String renders the table as TSV with a title and header line.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte('\t')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(stats.FormatRow(r.Label, r.Values...))
		b.WriteByte('\n')
	}
	return b.String()
}

// figDuration and figMeasureFrom parameterize the figure scenarios'
// simulated window (paper: 80 s, measured over 20-80 s); the figure
// smoke tests shorten them.
var figDuration, figMeasureFrom = 80.0, 20.0

// figScenario is DefaultScenario with the figure window applied.
func figScenario(def DefenseKind, atk AttackKind, scale float64, seed uint64) Scenario {
	sc := DefaultScenario(def, atk, scale)
	sc.Seed = seed
	sc.Duration = figDuration
	sc.MeasureFrom = figMeasureFrom
	return sc
}

// quantiles reported for CDF-style figures.
var cdfQuantiles = []float64{0.1, 0.25, 0.5, 0.75, 0.9}

func cdfRow(label string, cdf *stats.CDF) Row {
	vals := make([]float64, 0, len(cdfQuantiles)+2)
	for _, q := range cdfQuantiles {
		vals = append(vals, cdf.Quantile(q)/1e6) // Mb/s
	}
	vals = append(vals, cdf.Mean()/1e6, float64(cdf.N()))
	return Row{Label: label, Values: vals}
}

var cdfColumns = []string{"p10_mbps", "p25_mbps", "p50_mbps", "p75_mbps", "p90_mbps", "mean_mbps", "flows"}

// Fig2 reproduces the motivation plot: packet service rate vs drop rate
// at a congested link carrying only legitimate TCP traffic (no defense).
func Fig2(scale float64, seed uint64) (*Table, error) {
	sc := DefaultScenario(DefDropTail, AttackNone, scale)
	sc.Seed = seed
	sc.Duration = 40
	sc.MeasureFrom = 5
	m, err := Run(sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig.2: packet service rate vs drop rate (pkts/s), legitimate TCP only",
		Columns: []string{"service_pps", "drop_pps", "drop_ratio"},
	}
	service, drops := m.ServiceBins(), m.DropBins()
	for i := 0; i < len(service); i++ {
		d := 0.0
		if i < len(drops) {
			d = drops[i]
		}
		ratio := 0.0
		if service[i]+d > 0 {
			ratio = d / (service[i] + d)
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("t=%d", i), Values: []float64{service[i], d, ratio}})
	}
	return t, nil
}

// Fig3 reproduces the packet-size distribution: full-sized (1.5 KB)
// packets, VPN-tunneled (1.3 KB) packets, and 40-byte control packets.
func Fig3(scale float64, seed uint64) (*Table, error) {
	sc := DefaultScenario(DefDropTail, AttackNone, scale)
	sc.Seed = seed
	sc.Duration = 30
	sc.MeasureFrom = 5
	sc.DataSizes = []int{1500, 1500, 1500, 1300}
	m, err := Run(sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig.3: delivered packet size distribution",
		Columns: []string{"size_bytes", "fraction"},
	}
	counts := m.SizeHist.Counts()
	total := float64(m.SizeHist.N())
	for i, c := range counts {
		if c == 0 {
			continue
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("bin%02d", i),
			Values: []float64{m.SizeHist.BinCenter(i), float64(c) / total},
		})
	}
	return t, nil
}

// Fig4 reproduces the token-request model illustration: the aggregate
// window (token request) of n flows across one congestion epoch for each
// synchronization mode, plus achievable utilization.
func Fig4(n int, w float64) *Table {
	t := &Table{
		Title:   "Fig.4: aggregate token request vs epoch phase (packets)",
		Columns: []string{"unsynchronized", "synchronized", "partial"},
	}
	for i := 0; i <= 20; i++ {
		phase := float64(i) / 20
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("phase=%.2f", phase),
			Values: []float64{
				tcpmodel.AggregateRequest(tcpmodel.Unsynchronized, n, w, phase),
				tcpmodel.AggregateRequest(tcpmodel.Synchronized, n, w, phase),
				tcpmodel.AggregateRequest(tcpmodel.PartiallySynchronized, n, w, phase),
			},
		})
	}
	t.Rows = append(t.Rows, Row{
		Label: "utilization",
		Values: []float64{
			tcpmodel.UtilizationUnderSync(tcpmodel.Unsynchronized),
			tcpmodel.UtilizationUnderSync(tcpmodel.Synchronized),
			tcpmodel.UtilizationUnderSync(tcpmodel.PartiallySynchronized),
		},
	})
	return t
}

// Fig6 reproduces the attack-confinement time series: per-second mean
// bandwidth (Mb/s) of legitimate-path and attack-path identifiers under
// FLoc for one attack kind ("tcp-pop", "cbr", or "shrew").
func Fig6(kind AttackKind, scale float64, seed uint64) (*Table, *Measurement, error) {
	sc := figScenario(DefFLoc, kind, scale, seed)
	m, err := Run(sc)
	if err != nil {
		return nil, nil, err
	}
	var legitKeys, attackKeys []string
	for key := range m.PerPathBits {
		if m.AttackPathKeys[key] {
			attackKeys = append(attackKeys, key)
		} else {
			legitKeys = append(legitKeys, key)
		}
	}
	// Map order would otherwise set the float summation order inside
	// MeanPathSeries, perturbing regenerated results at the ulp level.
	sort.Strings(legitKeys)
	sort.Strings(attackKeys)
	secs := int(sc.Duration)
	legitSeries := m.MeanPathSeries(legitKeys, secs)
	attackSeries := m.MeanPathSeries(attackKeys, secs)
	t := &Table{
		Title:   fmt.Sprintf("Fig.6 (%s): per-path bandwidth under FLoc (Mb/s)", kind),
		Columns: []string{"legit_path_mean_mbps", "attack_path_mean_mbps"},
	}
	for i := 0; i < secs; i++ {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("t=%d", i),
			Values: []float64{legitSeries[i] / 1e6, attackSeries[i] / 1e6},
		})
	}
	return t, m, nil
}

// Fig7 reproduces the robustness CDFs: the distribution of per-flow
// bandwidth of legitimate-path flows under CBR attacks of varying
// strength, for FLoc, Pushback and RED-PD, plus the no-attack RED
// reference.
func Fig7(scale float64, rates []units.BitsPerSec, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Fig.7: legit-path flow bandwidth distribution under CBR attack",
		Columns: cdfColumns,
	}
	ref := figScenario(DefRED, AttackNone, scale, seed)
	m, err := Run(ref)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, cdfRow("red/no-attack", m.FlowBandwidthCDF(ClassLegitLegit)))

	for _, def := range []DefenseKind{DefFLoc, DefPushback, DefREDPD} {
		for _, rate := range rates {
			sc := figScenario(def, AttackCBR, scale, seed)
			sc.AttackRateBits = rate
			m, err := Run(sc)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s/%.1fMbps", def, rate/1e6)
			t.Rows = append(t.Rows, cdfRow(label, m.FlowBandwidthCDF(ClassLegitLegit)))
		}
	}
	return t, nil
}

// Fig8 reproduces the differential-guarantee comparison: the share of
// link bandwidth used by legit-path flows, legitimate flows of attack
// paths, and attack flows, per defense and per-bot attack rate, with
// FLoc's attack-path aggregation enabled (|S|max = 25).
func Fig8(scale float64, rates []units.BitsPerSec, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Fig.8: bandwidth shares by class (fraction of link capacity)",
		Columns: []string{"legit_path", "legit_in_attack_path", "attack", "utilization"},
	}
	for _, def := range []DefenseKind{DefFLoc, DefPushback, DefREDPD} {
		for _, rate := range rates {
			sc := figScenario(def, AttackCBR, scale, seed)
			sc.AttackRateBits = rate
			if def == DefFLoc {
				sc.SMax = 25
			}
			m, err := Run(sc)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s/%.1fMbps", def, rate/1e6),
				Values: []float64{
					m.ClassShare(ClassLegitLegit),
					m.ClassShare(ClassLegitAttackPath),
					m.ClassShare(ClassAttack),
					m.Utilization,
				},
			})
		}
	}
	return t, nil
}

// Fig9 reproduces legitimate-path aggregation: per-flow bandwidth of
// legit-path flows with and without aggregation when a third of the
// uncontaminated domains have half as many sources.
func Fig9(scale float64, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Fig.9: legit-path aggregation and per-flow fairness",
		Columns: cdfColumns,
	}
	for _, agg := range []bool{false, true} {
		sc := figScenario(DefFLoc, AttackCBR, scale, seed)
		sc.SMax = 25
		sc.LegitAgg = agg
		// Three uncontaminated domains get half the sources, one per
		// sibling group so each sits next to full-size domains (the
		// paper does not specify the placement; mixed-population sibling
		// groups are what proportional-share aggregation equalizes).
		sc.SmallLeaves = []int{0, 6, 9}
		m, err := Run(sc)
		if err != nil {
			return nil, err
		}
		label := "no-aggregation"
		if agg {
			label = "aggregation"
		}
		// The paper's Fig. 9 point is the two bands: flows of the
		// half-populated domains get ~2x the bandwidth of the rest until
		// aggregation equalizes them. Report the bands separately.
		smallKeys := map[string]bool{}
		for _, leaf := range sc.SmallLeaves {
			smallKeys[m.LeafKeys[leaf]] = true
		}
		small := m.FlowBandwidthCDFForPaths(ClassLegitLegit, func(k string) bool { return smallKeys[k] })
		large := m.FlowBandwidthCDFForPaths(ClassLegitLegit, func(k string) bool { return !smallKeys[k] })
		t.Rows = append(t.Rows, cdfRow(label+"/small-domains", small))
		t.Rows = append(t.Rows, cdfRow(label+"/large-domains", large))
		t.Rows = append(t.Rows, cdfRow(label+"/all", m.FlowBandwidthCDF(ClassLegitLegit)))
		t.Rows = append(t.Rows, cdfRow(label+"/attack-path-legit", m.FlowBandwidthCDF(ClassLegitAttackPath)))
	}
	return t, nil
}

// Fig10 reproduces the covert-attack comparison: bandwidth shares of
// legitimate vs attack traffic as each attack source raises its number
// of concurrent low-rate (0.2 Mb/s) flows, under FLoc (n_max = 2),
// Pushback, and RED-PD.
func Fig10(scale float64, fanouts []int, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Fig.10: covert attack - bandwidth shares vs per-source fanout",
		Columns: []string{"legit_share", "attack_share", "utilization"},
	}
	for _, def := range []DefenseKind{DefFLoc, DefPushback, DefREDPD} {
		for _, fan := range fanouts {
			sc := figScenario(def, AttackCovert, scale, seed)
			sc.AttackRateBits = 0.2e6
			sc.CovertFanout = fan
			if def == DefFLoc {
				sc.NMax = 2
			}
			m, err := Run(sc)
			if err != nil {
				return nil, err
			}
			legit := m.ClassShare(ClassLegitLegit) + m.ClassShare(ClassLegitAttackPath)
			t.Rows = append(t.Rows, Row{
				Label:  fmt.Sprintf("%s/fanout=%d", def, fan),
				Values: []float64{legit, m.ClassShare(ClassAttack), m.Utilization},
			})
		}
	}
	return t, nil
}

// FigTimed is an extension experiment beyond the paper's evaluation: the
// timed attacks its Related Work singles out as defeating
// filter-installing defenses (Section II — "a bot network changes attack
// strength (e.g., on-off attacks) or location (e.g., rolling attacks) in
// a coordinated manner to avoid detection"). It compares FLoc, Pushback
// and RED-PD under the steady CBR reference, a synchronized on-off
// attack, and a rolling attack that moves between contaminated domains.
func FigTimed(scale float64, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Extension: timed (on-off / rolling) attacks - bandwidth shares",
		Columns: []string{"legit_path", "legit_in_attack_path", "attack", "utilization"},
	}
	for _, def := range []DefenseKind{DefFLoc, DefPushback, DefREDPD} {
		for _, atk := range []AttackKind{AttackCBR, AttackOnOff, AttackRolling} {
			sc := figScenario(def, atk, scale, seed)
			m, err := Run(sc)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s/%s", def, atk),
				Values: []float64{
					m.ClassShare(ClassLegitLegit),
					m.ClassShare(ClassLegitAttackPath),
					m.ClassShare(ClassAttack),
					m.Utilization,
				},
			})
		}
	}
	return t, nil
}

// MarshalJSON renders the table as a JSON object with title, columns and
// rows, for plotting pipelines.
func (t *Table) MarshalJSON() ([]byte, error) {
	type row struct {
		Label  string    `json:"label"`
		Values []float64 `json:"values"`
	}
	rows := make([]row, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = row{Label: r.Label, Values: r.Values}
	}
	return json.Marshal(struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []row    `json:"rows"`
	}{t.Title, t.Columns, rows})
}

// FigDeployment is an extension experiment: FLoc under *incremental
// deployment* of path marking (Section III-A claims markings "can be
// adopted by individual domains independently and incrementally" but the
// paper does not evaluate partial deployment). A fraction of leaf
// domains stamp identifiers; the rest are lumped into one shared
// unmarked identifier, which competes as a single path.
func FigDeployment(scale float64, fractions []float64, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Extension: FLoc under partial path-marking deployment (CBR attack)",
		Columns: []string{"legit_total", "attack", "utilization"},
	}
	for _, frac := range fractions {
		sc := figScenario(DefFLoc, AttackCBR, scale, seed)
		sc.MarkingFraction = frac
		m, err := Run(sc)
		if err != nil {
			return nil, err
		}
		legit := m.ClassShare(ClassLegitLegit) + m.ClassShare(ClassLegitAttackPath)
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("marking=%.0f%%", frac*100),
			Values: []float64{legit, m.ClassShare(ClassAttack), m.Utilization},
		})
	}
	return t, nil
}
