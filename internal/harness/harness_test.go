package harness

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parsePct parses a "12.3%" cell.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", s, err)
	}
	return v
}

// TestRegistryComplete pins the registry to exactly the paper's fourteen
// tables and figures, in presentation order: systems-side measurements
// belong to benchmark/, and a driver added here would be a second ruler.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig12a", "fig12b", "fig12c", "fig12d",
		"fig12e", "fig12f", "fig12g", "fig12h", "fig12i", "fig12j", "fig12k", "fig12l"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s lacks a title or a driver", e.ID)
		}
		if byID, ok := ByID(e.ID); !ok || byID.ID != e.ID {
			t.Fatalf("ByID(%q) does not resolve", e.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if !slices.Equal(IDs(), sorted) {
		t.Fatalf("IDs() = %v, want %v", IDs(), sorted)
	}
}

func TestTable1ShapesHold(t *testing.T) {
	tab := Table1(QuickConfig())
	if len(tab.Rows) != 11 { // 10 datasets + average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	avg := tab.Rows[len(tab.Rows)-1]
	rcAho := parsePct(t, avg[2])
	rcR := parsePct(t, avg[4])
	// The paper's qualitative claims: RCr is dramatically smaller than the
	// AHO baseline, and real graphs compress well for reachability.
	if rcR >= rcAho {
		t.Fatalf("RCr %.1f%% not better than RCaho %.1f%%", rcR, rcAho)
	}
	if rcR > 60 {
		t.Fatalf("average RCr %.1f%% implausibly high", rcR)
	}
}

func TestTable2ShapesHold(t *testing.T) {
	tab := Table2(QuickConfig())
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	avg := parsePct(t, tab.Rows[len(tab.Rows)-1][2])
	if avg <= 0 || avg > 100 {
		t.Fatalf("average PCr %.1f%% out of range", avg)
	}
}

// TestPatternFiguresUseLabeledDatasets pins Fig. 12(l) to Table 2's labeled
// datasets: step 0 of the growth series is the very graph Table 2
// compresses, so the two PCr cells must agree. (Youtube and Internet also
// exist in Table 1's registry with ONE label; the figure once picked those,
// and the Youtube column collapsed to 0.0% as soon as every node had a
// successor.)
func TestPatternFiguresUseLabeledDatasets(t *testing.T) {
	cfg := QuickConfig()
	pcr := map[string]string{}
	for _, row := range Table2(cfg).Rows {
		pcr[row[0]] = row[2]
	}
	tab := Fig12l(cfg)
	for col, name := range tab.Header[1:] {
		if got, want := tab.Rows[0][col+1], pcr[name]; got != want {
			t.Errorf("fig12l %s at step 0 = %s, table2 says %s", name, got, want)
		}
		for _, row := range tab.Rows {
			if parsePct(t, row[col+1]) == 0 {
				t.Errorf("fig12l %s collapsed to %s at Δ|E| %s%%", name, row[col+1], row[0])
			}
		}
	}
}

func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale full sweep still takes a few seconds")
	}
	cfg := QuickConfig()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(cfg)
			if tab == nil || len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(tab.Header) == 0 {
				t.Fatalf("%s has no header", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row width %d != header %d", e.ID, len(row), len(tab.Header))
				}
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Fatalf("%s: rendering lacks id", e.ID)
			}
		})
	}
}

func TestFprintAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	lines := strings.Split(buf.String(), "\n")
	if !strings.HasPrefix(lines[1], "a ") {
		t.Fatalf("unexpected render: %q", buf.String())
	}
}
