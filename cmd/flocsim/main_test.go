package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildInfo matches the registry's floc_build_info series, whose labels
// name the binary that printed it rather than anything it computed.
var buildInfo = regexp.MustCompile(`floc_build_info\{[^}]*\}`)

// TestFiguresMatchGolden holds figures 11 and 13 to the bytes the
// former topogen and inetsim commands printed for the same seed, so
// folding them into flocsim changed no output.
func TestFiguresMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig11.golden", []string{"-fig", "11", "-seed", "42"}},
		{"fig13.golden", []string{"-fig", "13", "-scale", "0.01", "-seed", "42", "-metrics"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := cli(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("flocsim %s: exit %d: %s", strings.Join(tc.args, " "), code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := buildInfo.ReplaceAll(stdout.Bytes(), []byte("floc_build_info{}"))
			want = buildInfo.ReplaceAll(want, []byte("floc_build_info{}"))
			if !bytes.Equal(got, want) {
				t.Fatalf("flocsim %s differs from testdata/%s:\n%s",
					strings.Join(tc.args, " "), tc.golden, got)
			}
		})
	}
}

// TestUsageErrorsExit2 asserts that input flocsim cannot honor stops it
// with exit status 2 and a message naming the problem, before any run.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-fig", "4", "-format", "jsn"}, `-format "jsn"`},
		{[]string{"-fig", "8", "-scenario", "floc:cbr"}, "-fig and -scenario are exclusive"},
		{[]string{"-fig", "4", "-metrics"}, "-metrics applies to -scenario and figs 13-15"},
		{[]string{"-fig", "4", "-trace", "out.ndjson"}, "-trace requires -scenario"},
		{[]string{"-scale", "0.1"}, "Usage"},
		{[]string{"-nosuchflag"}, "not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("flocsim %s: exit %d, want 2", strings.Join(tc.args, " "), code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("flocsim %s: stderr %q does not mention %q", strings.Join(tc.args, " "), stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("flocsim %s: printed %q before failing", strings.Join(tc.args, " "), stdout.String())
		}
	}
}

func TestParseRates(t *testing.T) {
	r, err := parseRates("0.4, 2.0,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 3 || r[0] != 0.4e6 || r[2] != 4e6 {
		t.Fatalf("rates = %v", r)
	}
	if _, err := parseRates("0.4,x"); err == nil {
		t.Fatal("bad rate accepted")
	}
}

func TestParseInts(t *testing.T) {
	v, err := parseInts("1, 8,20")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || v[2] != 20 {
		t.Fatalf("ints = %v", v)
	}
	if _, err := parseInts("1,zz"); err == nil {
		t.Fatal("bad int accepted")
	}
}

func TestParseSeeds(t *testing.T) {
	s, err := parseSeeds("1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[1] != 2 {
		t.Fatalf("seeds = %v", s)
	}
	if _, err := parseSeeds("a"); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if _, err := run("99", 0.1, 1, "1", "1", "1", nil); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunFig4(t *testing.T) {
	tab, err := run("4", 0.1, 1, "1", "1", "1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
}

func TestParseScenario(t *testing.T) {
	def, atk, err := parseScenario("floc:cbr")
	if err != nil {
		t.Fatal(err)
	}
	if string(def) != "floc" || string(atk) != "cbr" {
		t.Fatalf("parsed %q:%q", def, atk)
	}
	for _, bad := range []string{"floc", ":cbr", "floc:", ""} {
		if _, _, err := parseScenario(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
