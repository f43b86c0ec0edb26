package modelstore

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestPublishGCHammer runs GC in a loop beside concurrent publishes —
// distinct documents plus one document every publisher shares — and then
// requires that every publish succeeded and that every version the
// manifest records names a blob that exists. A blob written outside the
// store lock can be swept by GC before its manifest append, and two
// publishes of identical bytes can race on one temp file; either shows
// up here as a failed publish or a dangling version.
func TestPublishGCHammer(t *testing.T) {
	const (
		rounds     = 10
		publishers = 8
		perRound   = 5
	)
	// Tiny hand-written model documents: valid for LoadAny and distinct
	// by construction, so every publish writes a fresh blob.
	doc := func(normal int) []byte {
		return []byte(fmt.Sprintf(`{"version":1,"options":{"omega":3,"delta":2},"tree":{"normal":%d,"anomaly":0}}`, normal))
	}
	shared := doc(0)
	for round := 0; round < rounds; round++ {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		gcDone := make(chan []error, 1)
		go func() {
			var errs []error
			for {
				select {
				case <-stop:
					gcDone <- errs
					return
				default:
				}
				if _, err := st.GC(); err != nil {
					errs = append(errs, err)
				}
			}
		}()
		var wg sync.WaitGroup
		errs := make(chan error, publishers*perRound)
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					body := doc(1 + p*perRound + i)
					if i%2 == 1 {
						body = shared
					}
					if _, err := st.Publish(fmt.Sprintf("m%d", p%2), body, "publish", ""); err != nil {
						errs <- err
					}
				}
			}(p)
		}
		wg.Wait()
		close(stop)
		if gcErrs := <-gcDone; len(gcErrs) > 0 {
			t.Errorf("round %d: %d GC sweeps failed, first: %v", round, len(gcErrs), gcErrs[0])
		}
		close(errs)
		for err := range errs {
			t.Errorf("round %d: publish: %v", round, err)
		}
		total := 0
		for _, name := range st.Models() {
			vers, _, err := st.Versions(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vers {
				total++
				if _, err := os.Stat(st.blobPath(v.Digest)); err != nil {
					t.Errorf("round %d: %s v%d names a missing blob: %v", round, name, v.Version, err)
				}
			}
		}
		if total != publishers*perRound {
			t.Fatalf("round %d: manifest records %d versions, want %d", round, total, publishers*perRound)
		}
		if t.Failed() {
			return
		}
	}
}
