package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, f File, p []byte) error {
	t.Helper()
	_, err := f.Write(p)
	return err
}

func TestDiskPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	f, err := Disk.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(t, f, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Disk.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := Disk.Rename(path, filepath.Join(dir, "y.bin")); err != nil {
		t.Fatal(err)
	}
	entries, err := Disk.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "y.bin" {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
}

// TestRuleWindow pins the deterministic count semantics: After skips,
// Count bounds, and the same plan over the same operations fires at the
// same points on every run.
func TestRuleWindow(t *testing.T) {
	for run := 0; run < 2; run++ {
		dir := t.TempDir()
		in := NewInject(Disk, Rule{Op: OpWrite, After: 2, Count: 2})
		f, err := in.OpenFile(filepath.Join(dir, "w.bin"), os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			t.Fatal(err)
		}
		var got []bool
		for i := 0; i < 6; i++ {
			got = append(got, writeAll(t, f, []byte{byte(i)}) != nil)
		}
		want := []bool{false, false, true, true, false, false}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: write %d failed=%v, want %v", run, i, got[i], want[i])
			}
		}
		if in.Fired() != 2 {
			t.Fatalf("run %d: fired %d, want 2", run, in.Fired())
		}
		if in.Armed() {
			t.Fatalf("run %d: exhausted plan still armed", run)
		}
		f.Close()
	}
}

func TestPathFilter(t *testing.T) {
	dir := t.TempDir()
	in := NewInject(Disk, Rule{Op: OpSync, Path: "wal-"})
	wal, _ := in.OpenFile(filepath.Join(dir, "wal-01.seg"), os.O_WRONLY|os.O_CREATE, 0o666)
	snap, _ := in.OpenFile(filepath.Join(dir, "snap.qps"), os.O_WRONLY|os.O_CREATE, 0o666)
	if err := snap.Sync(); err != nil {
		t.Fatalf("sync on unmatched path failed: %v", err)
	}
	if err := wal.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync on matched path = %v, want ErrInjected", err)
	}
}

// TestShortWrite pins the torn-write semantics: a prefix lands on disk,
// the caller sees the error.
func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	in := NewInject(Disk, Rule{Op: OpWrite, ShortBy: 3})
	f, _ := in.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	n, err := f.Write([]byte("0123456789"))
	if err == nil {
		t.Fatal("short write did not error")
	}
	if n != 7 {
		t.Fatalf("short write reported %d bytes, want 7", n)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "0123456" {
		t.Fatalf("disk holds %q, want the 7-byte torn prefix", got)
	}
}

func TestEnospcAndRename(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "a.tmp")
	os.WriteFile(src, []byte("x"), 0o666)
	in := NewInject(Disk, Rule{Op: OpWrite, Err: ErrNoSpace}, Rule{Op: OpRename})
	f, _ := in.OpenFile(filepath.Join(dir, "w.bin"), os.O_WRONLY|os.O_CREATE, 0o666)
	if err := writeAll(t, f, []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write = %v, want ENOSPC", err)
	}
	dst := filepath.Join(dir, "a.fin")
	if err := in.Rename(src, dst); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatal("failed rename created the destination")
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatal("failed rename removed the source")
	}
}

// TestFlipRead pins silent single-bit corruption: exactly one bit differs
// and no error is reported.
func TestFlipRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	want := bytes.Repeat([]byte{0xAA}, 64)
	os.WriteFile(path, want, 0o666)
	in := NewInject(Disk, Rule{Op: OpRead, Flip: true, Count: 1})
	got, err := in.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^want[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flip changed %d bits, want exactly 1", diff)
	}
	again, err := in.ReadFile(path)
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("exhausted flip rule still corrupts (%v)", err)
	}
}

func TestDisarm(t *testing.T) {
	in := NewInject(Disk, Rule{Op: OpSync})
	if !in.Armed() {
		t.Fatal("fresh unbounded rule not armed")
	}
	in.Disarm()
	if in.Armed() {
		t.Fatal("Disarm left the plan armed")
	}
	dir := t.TempDir()
	f, _ := in.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o666)
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Disarm: %v", err)
	}
}

func TestParsePlan(t *testing.T) {
	rules, err := ParsePlan("enospc@120+40,sync@3%wal-,flip@0+1,short@2+5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(rules))
	}
	if rules[0].Op != OpWrite || !errors.Is(rules[0].Err, ErrNoSpace) || rules[0].After != 120 || rules[0].Count != 40 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Op != OpSync || rules[1].Path != "wal-" || rules[1].After != 3 || rules[1].Count != 0 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Op != OpRead || !rules[2].Flip {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if rules[3].Op != OpWrite || rules[3].ShortBy != -1 {
		t.Fatalf("rule 3 = %+v", rules[3])
	}
	for _, bad := range []string{"", "bogus@1", "sync@-1", "sync@1+0", "sync@1%", "sync@x"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) did not error", bad)
		}
	}
}
