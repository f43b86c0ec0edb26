package evalmetrics

import (
	"math/rand"
	"slices"
	"testing"
)

func TestKFoldErrors(t *testing.T) {
	if _, err := StratifiedKFoldIndices(nil, 2, 1); err == nil {
		t.Error("empty stratified input accepted")
	}
	if _, err := StratifiedKFoldIndices(make([]bool, 10), 1, 1); err == nil {
		t.Error("stratified k=1 accepted")
	}
}

func TestStratifiedKFoldPreservesRatio(t *testing.T) {
	positive := make([]bool, 100)
	for i := 0; i < 20; i++ {
		positive[i] = true
	}
	folds, err := StratifiedKFoldIndices(positive, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for f, fold := range folds {
		pos := 0
		for _, idx := range fold {
			if positive[idx] {
				pos++
			}
		}
		if pos != 4 { // 20 positives / 5 folds
			t.Errorf("fold %d has %d positives, want 4", f, pos)
		}
	}
}

func TestStratifiedKFoldCoversAll(t *testing.T) {
	positive := []bool{true, false, true, false, false, true, false, false}
	folds, err := StratifiedKFoldIndices(positive, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		for _, idx := range fold {
			if seen[idx] {
				t.Fatalf("index %d duplicated", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != len(positive) {
		t.Errorf("covered %d of %d", len(seen), len(positive))
	}
}

// checkStratifiedFolds fails t unless folds partition the indices of
// positive into k folds that deal each class evenly (its counts in any
// two folds differ by at most one) and balance the fold totals the same
// way, leaving no fold empty.
func checkStratifiedFolds(t *testing.T, positive []bool, k int, folds [][]int) {
	t.Helper()
	if len(folds) != k {
		t.Fatalf("%d folds, want %d", len(folds), k)
	}
	seen := make([]bool, len(positive))
	var lo, hi [3]int // negatives, positives, totals
	for f, fold := range folds {
		var n [3]int
		for _, idx := range fold {
			if seen[idx] {
				t.Fatalf("k=%d: index %d dealt twice", k, idx)
			}
			seen[idx] = true
			if positive[idx] {
				n[1]++
			} else {
				n[0]++
			}
		}
		n[2] = len(fold)
		for c := range n {
			if f == 0 || n[c] < lo[c] {
				lo[c] = n[c]
			}
			hi[c] = max(hi[c], n[c])
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("k=%d: index %d of %d in no fold", k, i, len(positive))
	}
	if hi[0]-lo[0] > 1 || hi[1]-lo[1] > 1 {
		t.Fatalf("k=%d over %d samples: per-fold negatives %d..%d, positives %d..%d; want each within one",
			k, len(positive), lo[0], hi[0], lo[1], hi[1])
	}
	if hi[2]-lo[2] > 1 || lo[2] == 0 {
		t.Fatalf("k=%d over %d samples: fold sizes %d..%d; want them within one and none empty",
			k, len(positive), lo[2], hi[2])
	}
}

// TestStratifiedKFoldBalancedPerClass: over random inputs, the k folds
// partition the indices, each class is dealt evenly, and so are the fold
// totals: no fold is empty.
func TestStratifiedKFoldBalancedPerClass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(9)
		positive := make([]bool, k+rng.Intn(120))
		rate := rng.Float64()
		for i := range positive {
			positive[i] = rng.Float64() < rate
		}
		folds, err := StratifiedKFoldIndices(positive, k, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		checkStratifiedFolds(t, positive, k, folds)
	}
}

// TestStratifiedKFoldNoEmptyFold: inputs where dealing both classes from
// fold 0 leaves the last folds empty — 2 positives and 2 negatives at
// k = 3 gave folds of 2, 2 and 0, and 4 positives and 6 negatives at
// k = 10 gave four empty folds to test on.
func TestStratifiedKFoldNoEmptyFold(t *testing.T) {
	for _, tc := range []struct{ pos, neg, k int }{{2, 2, 3}, {4, 6, 10}} {
		positive := make([]bool, tc.pos+tc.neg)
		for i := range tc.pos {
			positive[i] = true
		}
		for seed := range int64(20) {
			folds, err := StratifiedKFoldIndices(positive, tc.k, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkStratifiedFolds(t, positive, tc.k, folds)
		}
	}
}

func TestTrainTestFromFolds(t *testing.T) {
	folds := [][]int{{0, 1}, {2, 3}, {4}}
	train, test := TrainTestFromFolds(folds, 1)
	if len(test) != 2 || test[0] != 2 {
		t.Errorf("test = %v", test)
	}
	if len(train) != 3 {
		t.Errorf("train = %v", train)
	}
}
