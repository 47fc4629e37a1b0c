package snapfile

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/gen"
)

// FuzzWriteUnderFaults throws arbitrary parsed fault plans at the atomic
// snapshot write protocol and holds it to its crash contract: a write that
// reports success must verify and load back exactly; a write that reports
// failure must leave the previous good snapshot untouched; and either way
// no *.tmp debris may survive that parses as a snapshot.
func FuzzWriteUnderFaults(f *testing.F) {
	f.Add("enospc@0+1%.tmp", int64(3))
	f.Add("sync@0+2,short@1+1", int64(5))
	f.Add("rename@0+1%snap", int64(7))
	f.Add("write@2+3%.tmp,flip@0+1", int64(11))
	f.Add("open@0+1,remove@1+2", int64(13))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		rules, err := faultfs.ParsePlan(spec)
		if err != nil {
			return
		}
		g := gen.P2P(rand.New(rand.NewSource(seed%64)), 60, 200, 3)
		parts := buildStoreParts(g, 4, false)
		dir := t.TempDir()
		path := filepath.Join(dir, "snap-0000000000000004.qps")
		if err := WriteStore(path, parts); err != nil {
			t.Fatalf("clean write: %v", err)
		}
		in := faultfs.NewInject(faultfs.Disk, rules...)
		next := buildStoreParts(g, 5, false)
		nextPath := filepath.Join(dir, "snap-0000000000000005.qps")
		werr := WriteStoreFS(in, nextPath, next)
		if werr == nil {
			if _, verr := Verify(nextPath); verr != nil {
				t.Fatalf("acked snapshot fails verification: %v", verr)
			}
			p, lerr := LoadStore(nextPath)
			if lerr != nil || p.Epoch != 5 {
				t.Fatalf("acked snapshot fails to load: %v", lerr)
			}
		}
		// Failed or not, the previous snapshot must still be good…
		if p, err := LoadStore(path); err != nil || p.Epoch != 4 {
			t.Fatalf("previous snapshot damaged by a faulted write: %v", err)
		}
		// …and any temp debris must not masquerade as a snapshot.
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		for _, tmp := range tmps {
			if _, err := Verify(tmp); err == nil {
				t.Fatalf("temp debris %s parses as a complete snapshot", filepath.Base(tmp))
			}
			os.Remove(tmp)
		}
		// A later clean retry must always get through.
		if err := WriteStore(nextPath, next); err != nil {
			t.Fatalf("clean retry after faulted write: %v", err)
		}
		if _, err := Verify(nextPath); err != nil {
			t.Fatalf("clean retry does not verify: %v", err)
		}
		_ = errors.Is(werr, faultfs.ErrInjected)
	})
}
