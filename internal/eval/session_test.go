package eval

import (
	"strings"
	"testing"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
)

func TestSessionExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validated evaluation in -short mode")
	}
	ds := datasets.Yelp()
	out, err := SessionExperiment([]*datasets.Dataset{ds}, []float64{0, 0.5}, Options{Obscurity: fragment.NoConstOp})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.00") || !strings.Contains(out, "0.50") {
		t.Fatalf("missing decay rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, two rows
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
}

// sessionWeighted counts the half-edges carrying session weight.
func sessionWeighted(s *qfg.Snapshot) int {
	n := 0
	for _, w := range s.Parts().Sess {
		if w != 0 {
			n++
		}
	}
	return n
}

func TestTrainSessionQFGDecayZeroMatchesPlain(t *testing.T) {
	ds := datasets.Yelp()
	folds := splitFolds(len(ds.Tasks), 4, 1)
	plain, err := trainQFG(ds, folds, 0, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trainSessionQFG(ds, folds, 0, fragment.NoConstOp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Queries() != sess.Queries() || plain.Vertices() != sess.Vertices() || plain.Edges() != sess.Edges() {
		t.Fatalf("decay-0 session graph differs: %d/%d/%d vs %d/%d/%d",
			sess.Queries(), sess.Vertices(), sess.Edges(),
			plain.Queries(), plain.Vertices(), plain.Edges())
	}
	if sessionWeighted(sess) != 0 {
		t.Fatal("decay-0 graph must carry no session evidence")
	}
	withDecay, err := trainSessionQFG(ds, folds, 0, fragment.NoConstOp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sessionWeighted(withDecay) == 0 {
		t.Fatal("decayed graph must carry session evidence")
	}
}
