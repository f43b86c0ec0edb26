package modelstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen writes arbitrary manifest.json and audit.log bytes and opens
// the store over them. Whatever Open accepts, no store call may panic,
// and a Publish must get a version above every listed one.
func FuzzOpen(f *testing.F) {
	doc := modelDoc(f, 5)
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []int{1, 2} {
		if _, err := st.Publish("m", doc, "publish", ""); err != nil {
			f.Fatal(err)
		}
		if err := st.Promote("m", v); err != nil {
			f.Fatal(err)
		}
	}
	man, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	audit, err := os.ReadFile(filepath.Join(dir, "audit.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(man, audit)
	f.Add([]byte(`{"format":1,"models":{"x":null}}`), audit)
	f.Add(man, append(audit, `{"seq":5,"time":1,"event":"sha`...))
	// The last version number there is: Publish must refuse, not wrap.
	cur, _ := st.Current("m")
	f.Add(fmt.Appendf(nil, `{"format":1,"models":{"m":{"current":%d,"versions":[{"version":%[1]d,"digest":%q}]}}}`,
		math.MaxInt, cur.Digest), audit)

	f.Fuzz(func(t *testing.T, man, audit []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "audit.log"), audit, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		_ = st.CheckReady()
		_, _ = st.Audit(2)
		for _, name := range st.Models() {
			vs, _, err := st.Versions(name)
			if err != nil {
				t.Fatalf("listed model %q: %v", name, err)
			}
			st.Current(name)
			if len(vs) > 0 {
				_ = st.Promote(name, vs[0].Version)
				_ = st.Promote(name, vs[len(vs)-1].Version)
			}
			_, _ = st.Rollback(name)
			v, err := st.Publish(name, doc, "", "")
			if err != nil {
				continue
			}
			for _, old := range vs {
				if v.Version <= old.Version {
					t.Fatalf("model %q: published v%d, but v%d is already listed", name, v.Version, old.Version)
				}
			}
		}
		_, _ = st.GC()
		if _, err := st.Audit(0); err != nil {
			t.Fatalf("Audit after writes: %v", err)
		}
	})
}
