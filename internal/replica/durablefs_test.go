package replica

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/store"
)

// rootedFS serves every path from under root on the real disk, so a store
// opened on it can name a directory the disk does not have: a durable file
// read or written past the FS misses it.
type rootedFS struct{ root string }

func (r rootedFS) at(name string) string { return filepath.Join(r.root, name) }

func (r rootedFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	return faultfs.Disk.OpenFile(r.at(name), flag, perm)
}
func (r rootedFS) ReadFile(name string) ([]byte, error) { return faultfs.Disk.ReadFile(r.at(name)) }
func (r rootedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return faultfs.Disk.ReadDir(r.at(name))
}
func (r rootedFS) Stat(name string) (fs.FileInfo, error) { return faultfs.Disk.Stat(r.at(name)) }
func (r rootedFS) MkdirAll(path string, perm fs.FileMode) error {
	return faultfs.Disk.MkdirAll(r.at(path), perm)
}
func (r rootedFS) Remove(name string) error { return faultfs.Disk.Remove(r.at(name)) }
func (r rootedFS) Rename(oldpath, newpath string) error {
	return faultfs.Disk.Rename(r.at(oldpath), r.at(newpath))
}
func (r rootedFS) Truncate(name string, size int64) error {
	return faultfs.Disk.Truncate(r.at(name), size)
}

// virtualDir is a directory name that exists only under a rootedFS.
func virtualDir(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join(string(filepath.Separator), "qpgc-rooted-"+strings.ReplaceAll(t.Name(), "/", "-"), name)
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("%s must not exist on the disk (stat: %v)", dir, err)
	}
	return dir
}

// TestDurableFilesStayOnTheirFS opens a store, an installed image and a
// follower on a filesystem whose directories the real disk does not have:
// every durable file they write and every one they read back at reopen —
// snapshots, WAL, MANIFEST, TERM — goes through the FS they were opened on.
func TestDurableFilesStayOnTheirFS(t *testing.T) {
	fsys := rootedFS{root: t.TempDir()}
	g := matrixTopologies(41)["er"]

	t.Run("store", func(t *testing.T) {
		dir := virtualDir(t, "store")
		s, err := store.Open(g.Clone(), &store.Options{Dir: dir, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		mirror := g.Clone()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 4; i++ {
			batch := gen.RandomBatch(rng, mirror, 10, 0.6)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.BumpTerm(0); err != nil {
			t.Fatal(err)
		}
		if err := s.ObserveTerm(5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.BumpTerm(5); err != nil {
			t.Fatal(err)
		}
		epoch := s.Epoch()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = store.Open(nil, &store.Options{Dir: dir, FS: fsys})
		if err != nil {
			t.Fatalf("reopen through the FS: %v", err)
		}
		if s.Epoch() != epoch || s.Term() != 6 || s.Fenced() {
			t.Fatalf("reopened at epoch %d term %d fenced %v, want epoch %d term 6 unfenced", s.Epoch(), s.Term(), s.Fenced(), epoch)
		}
		diffAgainstReference(t, "reopen", mirror, map[string]server.Backend{"store": server.NewStoreBackend(s)})
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		img := s.Effects(0, 0)[0].Bytes
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// The reopened store's image, installed into a second directory and
		// read back from it.
		dir2 := virtualDir(t, "installed")
		s, err = store.OpenImage(img, &store.Options{Dir: dir2, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = store.Open(nil, &store.Options{Dir: dir2, FS: fsys})
		if err != nil {
			t.Fatalf("open the installed snapshot through the FS: %v", err)
		}
		defer s.Close()
		if s.Epoch() != epoch {
			t.Fatalf("installed store at epoch %d, want %d", s.Epoch(), epoch)
		}
		diffAgainstReference(t, "installed", mirror, map[string]server.Backend{"store": server.NewStoreBackend(s)})
	})

	t.Run("follower", func(t *testing.T) {
		lh := startLeader(t, g, nil)
		dir := virtualDir(t, "follower")
		f := startFollower(t, lh.srv.Addr(), Options{Dir: dir, FS: fsys})
		awaitEpoch(t, f, 0, 5*time.Second)
		mirror := g.Clone()
		rng := rand.New(rand.NewSource(6))
		var token uint64
		for i := 0; i < 3; i++ {
			batch := gen.RandomBatch(rng, mirror, 10, 0.6)
			mirror.Apply(batch)
			epoch, err := lh.cli.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			token = epoch
		}
		awaitEpoch(t, f, token, 10*time.Second)
		// A resync installs an image over the follower's own state, through
		// the FS; the write after it wakes the round that asks for it.
		f.resync()
		if st := f.Status(); st.Resyncs != 1 {
			t.Fatalf("follower resynced %d times, want 1", st.Resyncs)
		}
		batch := gen.RandomBatch(rng, mirror, 10, 0.6)
		mirror.Apply(batch)
		token, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); f.images.Load() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the resync's image never landed: %+v", f.Status())
			}
		}
		awaitEpoch(t, f, token, 10*time.Second)
		diffAgainstReference(t, "follower", mirror, map[string]server.Backend{"follower": f})
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("the follower's directory appeared on the disk (stat: %v)", err)
		}
	})
}
