package sweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden JSONL file")

func tinyConfig() Config {
	return Config{
		Grids:       []string{"path:n=8..16,k=2|3", "worstcase:k=4"},
		Algos:       []string{"greedy", "reduced"},
		Reps:        1,
		Seed:        1,
		CheckBounds: true,
	}
}

func runJSONL(t *testing.T, cfg Config) []byte {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicJSONL: the same Config produces byte-identical JSONL,
// across repeated runs and regardless of cell- or engine-level
// parallelism.
func TestDeterministicJSONL(t *testing.T) {
	cfg := Config{
		Grids:       []string{"matching-union:n=64..128,k=2|4", "tree:n=64"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        2,
		Seed:        42,
		CheckBounds: true,
	}
	base := runJSONL(t, cfg)
	if !bytes.Equal(base, runJSONL(t, cfg)) {
		t.Error("two identical runs differ")
	}
	cfg.CellWorkers = 1
	if !bytes.Equal(base, runJSONL(t, cfg)) {
		t.Error("serial cell execution changed the output")
	}
	cfg.CellWorkers = 0
	cfg.EngineWorkers = 4
	if !bytes.Equal(base, runJSONL(t, cfg)) {
		t.Error("workers engine changed the output")
	}
}

// TestGoldenJSONL pins a tiny all-integral grid byte for byte. Regenerate
// with: go test ./internal/sweep -run TestGoldenJSONL -update
func TestGoldenJSONL(t *testing.T) {
	got := runJSONL(t, tinyConfig())
	golden := filepath.Join("testdata", "tiny_grid.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSONL deviates from golden file (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONLRowsParse: every emitted line is a standalone valid JSON object
// with the identifying fields populated.
func TestJSONLRowsParse(t *testing.T) {
	out := runJSONL(t, tinyConfig())
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 10 { // (4 path cells + 1 worstcase cell) × 2 algos
		t.Fatalf("%d JSONL rows, want 10", len(lines))
	}
	for _, line := range lines {
		var row Result
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSON row %q: %v", line, err)
		}
		if row.Scenario == "" || row.Params == "" || row.Algo == "" {
			t.Errorf("row missing identity: %q", line)
		}
		if row.Skip == "" && (row.N == 0 || len(row.PerRound) != row.Rounds) {
			t.Errorf("row stats inconsistent: %q", line)
		}
	}
}

// TestAllFamiliesConform is the acceptance sweep: every registered family
// under every registered algorithm, bounds checked, zero violations. The
// inapplicable combinations (bipartite on unlabelled families) are skipped,
// not failed.
func TestAllFamiliesConform(t *testing.T) {
	rep, err := Run(Config{
		Grids:       DefaultGrids(),
		Algos:       AlgoNames(),
		Reps:        2,
		Seed:        7,
		CheckBounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := rep.Violations(); len(vs) != 0 {
		t.Fatalf("communication contracts violated:\n%s", strings.Join(vs, "\n"))
	}
	families := map[string]bool{}
	ran, skipped := 0, 0
	for _, res := range rep.Results {
		if res.Skip != "" {
			skipped++
			continue
		}
		ran++
		families[res.Scenario] = true
	}
	if len(families) != 9 {
		t.Errorf("sweep covered %d families, want all 9", len(families))
	}
	// bipartite applies only to double-cover: 8 families × 2 reps skipped.
	if skipped != 16 {
		t.Errorf("%d cells skipped, want 16", skipped)
	}
	if ran != 9*4*2-16 {
		t.Errorf("%d cells ran, want %d", ran, 9*4*2-16)
	}
}

func TestAggregate(t *testing.T) {
	rep, err := Run(Config{
		Grids:       []string{"path:n=8..16"},
		Algos:       []string{"greedy", "bipartite"},
		Seed:        1,
		CheckBounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Aggregate()
	if len(rows) != 2 {
		t.Fatalf("%d aggregate rows, want 2", len(rows))
	}
	if rows[0].Algo != "greedy" || rows[0].Cells != 2 || rows[0].Skipped != 0 {
		t.Errorf("greedy row wrong: %+v", rows[0])
	}
	if rows[1].Algo != "bipartite" || rows[1].Cells != 0 || rows[1].Skipped != 2 {
		t.Errorf("bipartite row wrong: %+v", rows[1])
	}
	var tbl bytes.Buffer
	if err := rep.RenderTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "path") || !strings.Contains(tbl.String(), "violations") {
		t.Errorf("table missing content:\n%s", tbl.String())
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := Expand(Config{Grids: []string{"nope:n=2"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Expand(Config{Algos: []string{"quantum"}, Grids: []string{"path:n=8"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Expand(Config{}); err == nil {
		t.Error("empty sweep accepted")
	}
	n, err := Expand(Config{Grids: []string{"path:n=8..64,k=2|3"}, Algos: []string{"greedy", "proposal"}, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*2*2*3 {
		t.Errorf("Expand = %d cells, want 48", n)
	}
	cells, err := expand(Config{Grids: []string{"path:n=8..64,k=2|3"}, Algos: []string{"greedy", "proposal"}, Reps: 3})
	if err != nil || len(cells) != n {
		t.Errorf("expand = %d cells (err %v), Expand counted %d", len(cells), err, n)
	}
	if _, err := Expand(Config{Instances: []InstanceRef{{ID: "x"}}}); err == nil {
		t.Error("instance ref without params accepted")
	}
}

// TestExpandCountsWithoutMaterialising: a tiny config naming 2^30 cells is
// counted arithmetically — a handful of allocations, not one per cell —
// and counts beyond int saturate instead of wrapping.
func TestExpandCountsWithoutMaterialising(t *testing.T) {
	huge := Config{Grids: []string{"path:n=8"}, Reps: 1 << 30}
	n, err := Expand(huge)
	if err != nil || n != 1<<30 {
		t.Fatalf("Expand = %d, %v; want 2^30 cells", n, err)
	}
	if allocs := testing.AllocsPerRun(3, func() { _, _ = Expand(huge) }); allocs > 100 {
		t.Errorf("Expand allocated %.0f times for 2^30 cells; it must not build them", allocs)
	}
	n, err = Expand(Config{Grids: []string{"path:n=8..64", "worstcase:k=4"}, Algos: []string{"greedy", "proposal"}, Reps: math.MaxInt})
	if err != nil || n != math.MaxInt {
		t.Errorf("overflowing count = %d, %v; want saturation at math.MaxInt", n, err)
	}
}
