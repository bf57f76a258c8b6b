package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestDetmap(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "detmap"), lint.Detmap)
}

func TestWallclock(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "wallclock"), lint.Wallclock)
}

func TestCtxErrOrder(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "ctxerrorder"), lint.CtxErrOrder)
}

func TestMetricName(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "metricname"), lint.MetricName)
}

func TestArenaretain(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "arenaretain"), lint.Arenaretain)
}

func TestCellmap(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "cellmap"), lint.Cellmap)
}

// TestWallclock2 runs wallclock over the helper-chain fixture, where
// only its transitive rule can fire.
func TestWallclock2(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "wallclock2"), lint.Wallclock)
}

func TestLockheld(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "lockheld"), lint.Lockheld)
}

func TestDurableerr(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "durableerr"), lint.Durableerr)
}

// TestArenaescape runs arenaretain over the dataflow fixture, where its
// escape rule and its call-site rule both fire.
func TestArenaescape(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "arenaescape"), lint.Arenaretain)
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// TestRepositoryIsClean is the self-gate: the full analyzer suite over
// the whole repository tree must produce zero findings — exactly what
// `go run ./cmd/reprolint ./...` asserts in scripts/check.sh. A
// finding here means either new code broke the determinism contract or
// an //reprolint:allow directive went stale.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	var out strings.Builder
	n, err := lint.Run(&out, lint.All(), []string{moduleRoot(t) + "/..."})
	if err != nil {
		t.Fatalf("reprolint failed to run: %v", err)
	}
	if n != 0 {
		t.Errorf("reprolint on the repository tree: %d finding(s), want 0:\n%s", n, out.String())
	}
}

// TestFixturesFailTheDriver mirrors the acceptance criterion: the
// driver (with allow-directive handling active) must exit non-zero on
// every analyzer's fixture, proving the gate actually bites. It walks
// the roster itself, so an analyzer without a fixture fails here.
func TestFixturesFailTheDriver(t *testing.T) {
	for _, a := range lint.All() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			// The /... suffix pulls in fixture helper subpackages so the
			// call graph sees the full chain; flat fixtures load
			// identically either way.
			n, err := lint.Run(&out, lint.All(), []string{filepath.Join("testdata", "src", name) + "/..."})
			if err != nil {
				t.Fatalf("driver error: %v", err)
			}
			if n == 0 {
				t.Errorf("driver found nothing in the %s fixture; the gate would not bite", name)
			}
			if !strings.Contains(out.String(), "["+name+"]") {
				t.Errorf("driver output has no [%s] finding:\n%s", name, out.String())
			}
			// Every allow inside a fixture must suppress something real
			// under the full suite — a stale directive here means an
			// analyzer quietly stopped firing where the fixture says it
			// must.
			if strings.Contains(out.String(), "suppresses nothing") {
				t.Errorf("stale //reprolint:allow in the %s fixture:\n%s", name, out.String())
			}
		})
	}
}

// TestAllowDirectiveHandling drives the allowlint fixture through the
// driver: the valid directive suppresses its wall-clock finding, and
// the malformed, unknown-analyzer and unused directives each surface
// as reprolint meta-findings.
func TestAllowDirectiveHandling(t *testing.T) {
	var out strings.Builder
	n, err := lint.Run(&out, lint.All(), []string{filepath.Join("testdata", "src", "allowlint")})
	if err != nil {
		t.Fatalf("driver error: %v", err)
	}
	got := out.String()
	if strings.Contains(got, "[wallclock]") {
		t.Errorf("valid allow directive did not suppress the wallclock finding:\n%s", got)
	}
	for _, want := range []string{
		`unknown analyzer "nosuchanalyzer"`,
		"reprolint:allow wallclock needs a reason",
		"reprolint:allow detmap suppresses nothing",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("driver output missing %q:\n%s", want, got)
		}
	}
	if n != 3 {
		t.Errorf("got %d findings, want exactly 3:\n%s", n, got)
	}
}

// TestWallclockBlindSpot pins the two halves of wallclock on the
// helper-chain fixture, whose clock reads sit two helper calls away in
// the clockutil subpackage. The direct rule — which scans this fixture
// by explicit opt-in — must report nothing: if it ever does, the
// fixture no longer demonstrates the blind spot and must be rethought.
// The transitive rule must report every in-scope hop, each with the
// witness chain through clockutil down to the clock read.
func TestWallclockBlindSpot(t *testing.T) {
	var out strings.Builder
	n, err := lint.Run(&out, lint.All(), []string{filepath.Join("testdata", "src", "wallclock2") + "/..."})
	if err != nil {
		t.Fatalf("driver error: %v", err)
	}
	got := out.String()
	if n != 2 {
		t.Errorf("got %d findings, want 2 (simulate, warmStamp):\n%s", n, got)
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if !strings.HasSuffix(line, "[wallclock]") || !strings.Contains(line, "transitively reads the wall clock") {
			t.Errorf("not a transitive wallclock finding (the direct rule must stay silent here): %s", line)
		}
		if !strings.Contains(line, "clockutil.Stamp → clockutil.now → time.Now") {
			t.Errorf("finding lacks the clockutil witness chain: %s", line)
		}
	}
}

// TestAllowMultiEdgeCases drives the allowmulti fixture, where
// wallclock and arenaretain fire on the same lines: a directive per
// analyzer silences a paired line, a lone arenaretain allow leaves the
// wallclock finding standing, a wrong analyzer name suppresses nothing
// and is reported stale, and a directive stranded two lines above its
// finding is out of range.
func TestAllowMultiEdgeCases(t *testing.T) {
	var out strings.Builder
	n, err := lint.Run(&out, lint.All(), []string{filepath.Join("testdata", "src", "allowmulti") + "/..."})
	if err != nil {
		t.Fatalf("driver error: %v", err)
	}
	got := out.String()
	if strings.Contains(got, "[arenaretain]") {
		t.Errorf("an arenaretain finding survived its allow directive:\n%s", got)
	}
	if c := strings.Count(got, "[wallclock]"); c != 3 {
		t.Errorf("got %d wallclock findings, want 3 (pairOneMissing, wrongName, stacked):\n%s", c, got)
	}
	for _, want := range []string{
		"reprolint:allow detmap suppresses nothing",
		"reprolint:allow wallclock suppresses nothing",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("driver output missing %q:\n%s", want, got)
		}
	}
	if n != 5 {
		t.Errorf("got %d findings, want exactly 5:\n%s", n, got)
	}
}

// TestRunJSON exercises the machine-readable driver mode over the
// allowmulti fixture: the array must parse, carry one element per
// finding, and populate every field the CI tooling keys on.
func TestRunJSON(t *testing.T) {
	var out strings.Builder
	n, err := lint.RunJSON(&out, lint.All(), []string{filepath.Join("testdata", "src", "allowmulti") + "/..."})
	if err != nil {
		t.Fatalf("driver error: %v", err)
	}
	var fs []lint.Finding
	if err := json.Unmarshal([]byte(out.String()), &fs); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(fs) != n {
		t.Errorf("JSON array has %d elements, driver reported %d", len(fs), n)
	}
	for _, f := range fs {
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Message == "" || f.Analyzer == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
	}
}

// TestAnalyzerMetadata pins the suite composition: eight analyzers, one
// per contract, with stable names, each documented — the names are
// part of the allow directive syntax, so renaming one silently breaks
// suppressions.
func TestAnalyzerMetadata(t *testing.T) {
	want := []string{
		"detmap", "wallclock", "ctxerrorder", "metricname", "arenaretain",
		"cellmap", "lockheld", "durableerr",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("lint.All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}
