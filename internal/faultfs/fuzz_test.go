package faultfs

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParsePlan throws arbitrary specs at the plan parser and, when one
// parses, drives a small workload through the resulting Inject: the engine
// must never panic, and torn writes must always land a strict prefix.
func FuzzParsePlan(f *testing.F) {
	f.Add("enospc@120+40,sync@300+3%wal-")
	f.Add("flip@0+1,short@2+5,rename@1")
	f.Add("sync@0")
	f.Add("write@1+2%seg,read@0+1")
	f.Add("open@0+1,remove@0,truncate@3")
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatal("ParsePlan returned no rules without error")
		}
		dir := t.TempDir()
		in := NewInject(Disk, rules...)
		path := filepath.Join(dir, "wal-0001.seg")
		payload := []byte("0123456789abcdef")
		for i := 0; i < 8; i++ {
			fh, err := in.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
			if err != nil {
				continue
			}
			n, err := fh.Write(payload)
			if err == nil && n != len(payload) {
				t.Fatalf("clean write reported %d of %d bytes", n, len(payload))
			}
			if err != nil && n > len(payload) {
				t.Fatalf("torn write reported %d bytes for a %d-byte write", n, len(payload))
			}
			fh.Sync()
			fh.Close()
			in.ReadFile(path)
			in.Rename(path, path+".x")
			in.Rename(path+".x", path)
			in.Truncate(path, 0)
			in.Remove(path)
		}
		in.Fired()
		in.Armed()
		in.Disarm()
	})
}
