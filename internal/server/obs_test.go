package server

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestMetricsRoundTrip drives traffic through an instrumented server and
// scrapes it over the wire: MsgMetrics must return the live registry's
// exposition (store, scheduler, server and slow-log families all
// populated) at the store's current epoch.
func TestMetricsRoundTrip(t *testing.T) {
	g := testGraph(7)
	reg := obs.NewRegistry()
	s, err := store.Open(g, &store.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := Start("127.0.0.1:0", Options{
		Backend:   NewStoreBackend(s),
		Obs:       reg,
		SlowQuery: time.Nanosecond, // every point read lands in the slow log
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rng := rand.New(rand.NewSource(8))
	n := g.NumNodes()
	for i := 0; i < 64; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if _, _, err := cli.Reachable(u, v, 0, false); err != nil {
			t.Fatalf("reach: %v", err)
		}
	}
	epoch, err := cli.Apply([]graph.Update{graph.Insertion(0, graph.Node(n-1))})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}

	text, scrapeEpoch, err := cli.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if scrapeEpoch != epoch {
		t.Fatalf("scrape at epoch %d, store at %d", scrapeEpoch, epoch)
	}
	for _, fam := range []string{
		"qpgc_server_requests_total",
		"qpgc_server_tail_held 0\n", // nobody tails this server
		"qpgc_server_inflight 1\n",  // the scrape itself
		`qpgc_server_request_seconds_count{type="reach"}`,
		"qpgc_store_reads_total",
		"qpgc_store_epoch",
		"qpgc_sched_waves_total",
		"qpgc_query_seconds",
		"qpgc_query_total",                   // the slow-query ring's entry count
		"qpgc_server_effect_bytes_total 0\n", // nobody tails it: no effect shipped...
		"qpgc_store_effect_ring_bytes 0\n",   // ...and none recorded
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("scrape lacks %s:\n%s", fam, text)
		}
	}
	// The tracer's span stages are never sampled, so 64 point reads must
	// show up in full on every pre-engine stage. (The leaf/summary stage
	// histograms sample 1 wave in obsSampleWaves and may read 0 here.)
	for _, stage := range []string{"epoch_wait", "wave"} {
		series := `qpgc_query_stage_seconds_count{stage="` + stage + `"}`
		if !strings.Contains(text, series+" 64\n") {
			t.Fatalf("scrape lacks %s 64:\n%s", series, text)
		}
	}
}

// TestMetricsWithoutRegistry pins the off switch: a server started with
// no registry answers MsgMetrics with an empty exposition rather than an
// error, so scrapers can tell "not instrumented" from "unreachable".
func TestMetricsWithoutRegistry(t *testing.T) {
	g := testGraph(9)
	_, srv := startStoreServer(t, g, Options{})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	text, _, err := cli.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if text != "" {
		t.Fatalf("uninstrumented server returned a scrape:\n%s", text)
	}
}
