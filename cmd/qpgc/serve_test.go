package main

import (
	"strings"
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
		{"durable, scrubbed, faulted", func(f *serveFlags) {
			f.sync, f.scrub, f.faults = "none", time.Second, "enospc@8+10%wal-"
		}, durable, true},
		{"no -listen", func(f *serveFlags) { f.listen = "" }, ok, false},
		{"-sync maybe", func(f *serveFlags) { f.sync = "maybe" }, durable, false},
		{"-scrub -1s", func(f *serveFlags) { f.scrub = -time.Second }, durable, false},
		{"-faults without -data", func(f *serveFlags) { f.faults = "enospc@8" }, ok, false},
		{"-scrub without -data", func(f *serveFlags) { f.scrub = time.Second }, ok, false},
	}
	for _, c := range cases {
		f := c.base
		c.edit(&f)
		if err := f.check(); (err == nil) != c.ok {
			t.Errorf("%s: check() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestTopShowsCompressionRatios: qpgc top prints each quotient's size and
// its compression ratio, |Gr| / |G|, from the store's size gauges.
func TestTopShowsCompressionRatios(t *testing.T) {
	var b strings.Builder
	renderTop(&b, metricSample{
		"qpgc_store_graph_nodes":                      100,
		"qpgc_store_graph_edges":                      300,
		`qpgc_store_quotient_nodes{scheme="reach"}`:   20,
		`qpgc_store_quotient_edges{scheme="reach"}`:   30,
		`qpgc_store_quotient_nodes{scheme="pattern"}`: 60,
		`qpgc_store_quotient_edges{scheme="pattern"}`: 140,
	}, nil, 0, 0, "test")
	for _, want := range []string{"reach Gr 20 + 30 = 0.125 of |G|", "pattern Gr 60 + 140 = 0.500 of |G|"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("qpgc top does not show %q:\n%s", want, b.String())
		}
	}
}
