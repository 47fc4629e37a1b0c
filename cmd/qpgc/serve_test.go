package main

import (
	"testing"
	"time"
)

func TestServeFlagsCheck(t *testing.T) {
	ok := serveFlags{listen: "127.0.0.1:0", sync: "always"}
	durable := ok
	durable.data = "d.qpgc"
	cases := []struct {
		name string
		edit func(*serveFlags)
		base serveFlags
		ok   bool
	}{
		{"defaults with -listen", func(*serveFlags) {}, ok, true},
		{"durable, scrubbed, faulted, capped", func(f *serveFlags) {
			f.sync, f.scrub, f.faults, f.maxqps = "none", time.Second, "enospc@8+10%wal-", 1000
		}, durable, true},
		{"no -listen", func(f *serveFlags) { f.listen = "" }, ok, false},
		{"-sync maybe", func(f *serveFlags) { f.sync = "maybe" }, durable, false},
		{"-scrub -1s", func(f *serveFlags) { f.scrub = -time.Second }, durable, false},
		{"-faults without -data", func(f *serveFlags) { f.faults = "enospc@8" }, ok, false},
		{"-scrub without -data", func(f *serveFlags) { f.scrub = time.Second }, ok, false},
		{"-maxqps -1", func(f *serveFlags) { f.maxqps = -1 }, ok, false},
	}
	for _, c := range cases {
		f := c.base
		c.edit(&f)
		if err := f.check(); (err == nil) != c.ok {
			t.Errorf("%s: check() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
