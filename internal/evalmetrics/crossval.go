package evalmetrics

import (
	"fmt"
	"math/rand"
)

// StratifiedKFoldIndices partitions indices into k shuffled folds — the
// 10-fold cross-validation protocol the paper uses to evaluate the WEKA
// rule learners (§4.3) — preserving the class ratio given by positive
// flags: with heavily imbalanced anomaly windows, plain folds can end up
// with no positive at all. Both classes are dealt round-robin, the
// negatives picking up at the fold after the last positive's, so each
// class's per-fold counts and the fold totals each differ by at most
// one, and no fold is empty.
func StratifiedKFoldIndices(positive []bool, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("metrics: k = %d, want >= 2", k)
	}
	if len(positive) < k {
		return nil, fmt.Errorf("metrics: %d samples cannot fill %d folds", len(positive), k)
	}
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, p := range positive {
		if p {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		f := (len(pos) + i) % k
		folds[f] = append(folds[f], idx)
	}
	return folds, nil
}

// TrainTestFromFolds returns the train indices (every fold except
// holdout) and the test indices (the holdout fold).
func TrainTestFromFolds(folds [][]int, holdout int) (train, test []int) {
	for f, fold := range folds {
		if f == holdout {
			test = append(test, fold...)
		} else {
			train = append(train, fold...)
		}
	}
	return train, test
}
