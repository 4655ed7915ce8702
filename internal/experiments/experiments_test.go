package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"anchor/internal/core"
)

// sharedRunner is reused across tests in this package so embeddings and
// grids are trained once.
var sharedRunner = NewRunner(SmallConfig())

func TestRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{
		"fig1", "fig2", "rule", "table1", "table2", "table3", "fig3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "table8", "table9", "table10",
		"table11", "table13", "prop1",
	}
	reg := Registry()
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), sharedRunner, "fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestGridCachedAndComplete(t *testing.T) {
	g1, err := sharedRunner.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sharedRunner.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if &g1[0] != &g2[0] {
		t.Fatal("grid not cached")
	}
	cfg := sharedRunner.Cfg
	want := len(cfg.Algorithms) * len(cfg.Dims) * len(cfg.Precisions) * len(cfg.Seeds)
	if len(g1) != want {
		t.Fatalf("grid has %d cells, want %d", len(g1), want)
	}
	for _, c := range g1 {
		for _, m := range core.MeasureNames() {
			if _, ok := c.Measures[m]; !ok {
				t.Fatalf("cell missing measure %s", m)
			}
		}
		for _, task := range cfg.SentimentTasks {
			di, ok := c.DI[task]
			if !ok {
				t.Fatalf("cell missing DI for %s", task)
			}
			if di < 0 || di > 100 {
				t.Fatalf("DI out of range: %v", di)
			}
			if acc := c.Acc[task]; acc < 0.4 {
				t.Fatalf("%s accuracy %.3f at dim %d prec %d suspiciously low", task, acc, c.Dim, c.Prec)
			}
		}
	}
}

func TestFullPrecisionHighDimMoreStableThanOneBitLowDim(t *testing.T) {
	// The paper's central claim at the extremes of the grid.
	grid, err := sharedRunner.SentimentGrid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells := AverageOverSeeds(grid)
	cfg := sharedRunner.Cfg
	var lowMem, highMem float64
	n := 0
	for _, c := range cells {
		if c.Algo != "mc" {
			continue
		}
		if c.Dim == cfg.Dims[0] && c.Prec == 1 {
			lowMem = c.DI["sst2"]
			n++
		}
		if c.Dim == cfg.maxDim() && c.Prec == 32 {
			highMem = c.DI["sst2"]
			n++
		}
	}
	if n != 2 {
		t.Fatal("grid extremes not found")
	}
	if highMem >= lowMem {
		t.Fatalf("stability-memory tradeoff violated at extremes: low-mem DI %.2f <= high-mem DI %.2f", lowMem, highMem)
	}
}

func TestAverageOverSeeds(t *testing.T) {
	cells := []Cell{
		{Algo: "mc", Dim: 8, Prec: 1, Seed: 1, Measures: map[string]float64{"m": 1}, DI: map[string]float64{"t": 10}, Acc: map[string]float64{"t": 0.8}},
		{Algo: "mc", Dim: 8, Prec: 1, Seed: 2, Measures: map[string]float64{"m": 3}, DI: map[string]float64{"t": 20}, Acc: map[string]float64{"t": 0.6}},
	}
	avg := AverageOverSeeds(cells)
	if len(avg) != 1 || avg[0].Measures["m"] != 2 || avg[0].DI["t"] != 15 || avg[0].Acc["t"] != 0.7 {
		t.Fatalf("average wrong: %+v", avg)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("v", 1.5)
	tb.AddRow("w", "z")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1.500") {
		t.Fatalf("render output:\n%s", out)
	}
}

// artifactRun is one artifact's memoized result on sharedRunner.
type artifactRun struct {
	once   sync.Once
	tables []*Table
	err    error
}

var (
	artifactMu   sync.Mutex
	artifactRuns = map[string]*artifactRun{}
)

// runAndCheck executes an experiment and requires at least one data row.
// Each artifact runs at most once per test binary: its own test and
// TestPaperArtifactDigests share the tables.
func runAndCheck(t *testing.T, id string) []*Table {
	t.Helper()
	artifactMu.Lock()
	run, ok := artifactRuns[id]
	if !ok {
		run = &artifactRun{}
		artifactRuns[id] = run
	}
	artifactMu.Unlock()
	run.once.Do(func() { run.tables, run.err = Run(context.Background(), sharedRunner, id) })
	tables, err := run.tables, run.err
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	rows := 0
	for _, tb := range tables {
		rows += len(tb.Rows)
	}
	if rows == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tables
}

func TestFig1(t *testing.T) { runAndCheck(t, "fig1") }
func TestFig2(t *testing.T) { runAndCheck(t, "fig2") }
func TestRule(t *testing.T) { runAndCheck(t, "rule") }
func TestFig4(t *testing.T) { runAndCheck(t, "fig4") }
func TestFig5(t *testing.T) { runAndCheck(t, "fig5") }
func TestFig6(t *testing.T) { runAndCheck(t, "fig6") }
func TestFig7(t *testing.T) { runAndCheck(t, "fig7") }
func TestFig8(t *testing.T) { runAndCheck(t, "fig8") }
func TestFig9(t *testing.T) { runAndCheck(t, "fig9") }
func TestTable1(t *testing.T) {
	tables := runAndCheck(t, "table1")
	// Every value must be a valid correlation.
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil || v < -1.001 || v > 1.001 {
			t.Fatalf("invalid spearman %q", row[3])
		}
	}
}
func TestTable2(t *testing.T) {
	tables := runAndCheck(t, "table2")
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("invalid error rate %q", row[3])
		}
	}
}
func TestTable3(t *testing.T)  { runAndCheck(t, "table3") }
func TestFig3(t *testing.T)    { runAndCheck(t, "fig3") }
func TestFig10(t *testing.T)   { runAndCheck(t, "fig10") }
func TestFig11(t *testing.T)   { runAndCheck(t, "fig11") }
func TestFig12(t *testing.T)   { runAndCheck(t, "fig12") }
func TestFig13(t *testing.T)   { runAndCheck(t, "fig13") }
func TestFig14(t *testing.T)   { runAndCheck(t, "fig14") }
func TestFig15(t *testing.T)   { runAndCheck(t, "fig15") }
func TestTable8(t *testing.T)  { runAndCheck(t, "table8") }
func TestTable9(t *testing.T)  { runAndCheck(t, "table9") }
func TestTable10(t *testing.T) { runAndCheck(t, "table10") }
func TestTable11(t *testing.T) { runAndCheck(t, "table11") }
func TestTable13(t *testing.T) { runAndCheck(t, "table13") }
func TestProp1(t *testing.T) {
	tables := runAndCheck(t, "prop1")
	// Closed form and Monte-Carlo must agree within 20% relative.
	for _, row := range tables[0].Rows {
		closed, _ := strconv.ParseFloat(row[2], 64)
		mc, _ := strconv.ParseFloat(row[3], 64)
		if closed <= 0 {
			t.Fatalf("closed form nonpositive: %v", closed)
		}
		if diff := mc - closed; diff > 0.2*closed+0.02 || diff < -0.2*closed-0.02 {
			t.Fatalf("Prop1 mismatch: closed=%v mc=%v", closed, mc)
		}
	}
}

func TestMonotonicityReport(t *testing.T) {
	tables, err := MonotonicityReport(context.Background(), sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no monotonicity rows")
	}
	// The average correlation between memory and instability must be
	// negative (more memory, more stable) — the paper's headline finding.
	var sum float64
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if avg := sum / float64(len(tables[0].Rows)); avg >= 0 {
		t.Fatalf("memory-instability correlation should be negative on average, got %.3f", avg)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow("v,comma", 1.25)
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"v,comma\",1.250\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}
