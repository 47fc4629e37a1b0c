package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// cmdTop polls a serving endpoint's metrics and renders a live one-screen
// dashboard: epoch and health, request/read/write rates computed from
// poll-to-poll counter deltas, latency quantiles, and the replication and
// fault counters when present. The endpoint is either the binary protocol
// (-addr, the MsgMetrics RPC) or the HTTP side-listener (-url, /metrics);
// both serve the same Prometheus text exposition. -once prints a single
// snapshot and exits, and -require turns it into an assertion: every named
// metric family must be present with a non-zero value, or top exits 1 —
// which is how CI smokes the metrics surface.
func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (binary protocol MsgMetrics)")
	url := fs.String("url", "", "metrics URL (the -metrics side-listener, e.g. http://host:port/metrics)")
	interval := fs.Duration("interval", time.Second, "poll interval for the live dashboard")
	once := fs.Bool("once", false, "print one snapshot and exit")
	require := fs.String("require", "", "comma-separated metric families that must be present and non-zero (implies -once)")
	fs.Parse(args)
	if (*addr == "") == (*url == "") {
		fatal(fmt.Errorf("top: exactly one of -addr or -url is required"))
	}
	poll := newPoller(*addr, *url)
	defer poll.close()

	if *require != "" {
		sample, _, err := poll.scrape()
		if err != nil {
			fatal(err)
		}
		missing := checkRequired(sample, strings.Split(*require, ","))
		if len(missing) > 0 {
			fatal(fmt.Errorf("top: required metrics missing or zero: %s", strings.Join(missing, ", ")))
		}
		fmt.Printf("top: %d required metric families present and non-zero\n",
			len(strings.Split(*require, ",")))
		return
	}
	if *once {
		sample, epoch, err := poll.scrape()
		if err != nil {
			fatal(err)
		}
		renderTop(os.Stdout, sample, nil, 0, epoch, poll.target())
		return
	}
	// The live dashboard outlives its endpoint: a scrape error (endpoint
	// restarting, failing over, briefly unreachable) backs off with a cap
	// and retries instead of exiting, so top keeps watching across a
	// failover. Only -once and -require keep scrape errors fatal — they are
	// assertions.
	var prev metricSample
	var prevAt time.Time
	backoff := *interval
	for {
		sample, epoch, err := poll.scrape()
		now := time.Now()
		if err != nil {
			fmt.Printf("top: scrape %s: %v — retrying in %v\n", poll.target(), err, backoff.Round(time.Millisecond))
			time.Sleep(backoff)
			if backoff *= 2; backoff > 10*time.Second {
				backoff = 10 * time.Second
			}
			prev, prevAt = nil, time.Time{} // rates restart clean after the gap
			continue
		}
		backoff = *interval
		fmt.Print("\x1b[H\x1b[2J") // home + clear: repaint in place
		var dt time.Duration
		if !prevAt.IsZero() {
			dt = now.Sub(prevAt)
		}
		renderTop(os.Stdout, sample, prev, dt, epoch, poll.target())
		prev, prevAt = sample, now
		time.Sleep(*interval)
	}
}

// metricSample is one scrape, flattened: full series name (with labels,
// e.g. `qpgc_query_stage_seconds{stage="leaf",quantile="0.99"}`) → value.
type metricSample map[string]float64

// poller abstracts the two scrape paths behind one call. The binary
// connection is dialed lazily and redialed after any scrape error, so a
// restarted or failed-over endpoint heals on the next poll.
type poller struct {
	addr string
	url  string
	cli  *server.Client
}

func newPoller(addr, url string) *poller {
	return &poller{addr: addr, url: url}
}

func (p *poller) target() string {
	if p.addr != "" {
		return p.addr
	}
	return p.url
}

func (p *poller) close() {
	if p.cli != nil {
		p.cli.Close()
	}
}

// scrape fetches and parses one exposition; epoch is 0 over HTTP (the text
// itself carries qpgc_store_epoch / qpgc_replica_epoch either way).
func (p *poller) scrape() (metricSample, uint64, error) {
	var text string
	var epoch uint64
	if p.addr != "" {
		if p.cli == nil {
			cli, err := server.Dial(p.addr)
			if err != nil {
				return nil, 0, err
			}
			cli.SetTimeout(5 * time.Second)
			p.cli = cli
		}
		var err error
		text, epoch, err = p.cli.Metrics()
		if err != nil {
			p.cli.Close()
			p.cli = nil // redial on the next scrape
			return nil, 0, err
		}
		if text == "" {
			return nil, 0, fmt.Errorf("top: endpoint serves no metrics (started without a registry?)")
		}
	} else {
		resp, err := http.Get(p.url)
		if err != nil {
			return nil, 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("top: GET %s: %s", p.url, resp.Status)
		}
		text = string(b)
	}
	return parseProm(text), epoch, nil
}

// parseProm reads the subset of the Prometheus text format our registry
// emits: `name{labels} value` lines plus # comments.
func parseProm(text string) metricSample {
	s := make(metricSample)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s
}

// family strips labels from a series name.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// checkRequired returns the families from want that have no series with a
// non-zero value in s (quantile series of an empty histogram are 0, but its
// _count is too, so "present and non-zero" means the family saw traffic).
func checkRequired(s metricSample, want []string) []string {
	nonzero := make(map[string]bool)
	for series, v := range s {
		if v != 0 {
			nonzero[family(series)] = true
		}
	}
	var missing []string
	for _, w := range want {
		w = strings.TrimSpace(w)
		if w != "" && !nonzero[w] {
			missing = append(missing, w)
		}
	}
	sort.Strings(missing)
	return missing
}

// get returns the first present series among names (0 if none).
func (s metricSample) get(names ...string) float64 {
	for _, n := range names {
		if v, ok := s[n]; ok {
			return v
		}
	}
	return 0
}

// rate is the per-second delta of a counter between two samples.
func rate(cur, prev metricSample, dt time.Duration, name string) float64 {
	if prev == nil || dt <= 0 {
		return 0
	}
	d := cur.get(name) - prev.get(name)
	if d < 0 {
		d = 0 // counter reset (endpoint restarted)
	}
	return d / dt.Seconds()
}

func renderTop(w io.Writer, cur, prev metricSample, dt time.Duration, rpcEpoch uint64, target string) {
	epoch := cur.get("qpgc_store_epoch", "qpgc_replica_epoch")
	if epoch == 0 && rpcEpoch != 0 {
		epoch = float64(rpcEpoch)
	}
	role := "leader"
	if _, ok := cur["qpgc_replica_epoch"]; ok {
		role = "replica"
	}
	health := "healthy"
	switch cur.get("qpgc_health_state") {
	case 1:
		health = "DEGRADED"
	case 2:
		health = "FENCED"
	}
	fmt.Fprintf(w, "qpgc top — %s  [%s]  epoch %.0f  %s\n", target, role, epoch, health)
	fmt.Fprintf(w, "store   batches %.0f  updates %.0f  reads %.0f  epoch age %.1fs\n",
		cur.get("qpgc_store_batches_total"),
		cur.get("qpgc_store_updates_total"),
		cur.get("qpgc_store_reads_total"),
		cur.get("qpgc_store_epoch_age_seconds"))
	if g := cur.get("qpgc_store_graph_nodes") + cur.get("qpgc_store_graph_edges"); g > 0 {
		// The paper's compression ratios, |Gr| / |G| with |G| = |V| + |E|.
		quot := func(scheme string) (float64, float64) {
			n := cur.get(`qpgc_store_quotient_nodes{scheme="` + scheme + `"}`)
			e := cur.get(`qpgc_store_quotient_edges{scheme="` + scheme + `"}`)
			return n, e
		}
		rn, re := quot("reach")
		pn, pe := quot("pattern")
		fmt.Fprintf(w, "size    G %.0f nodes %.0f edges  |  reach Gr %.0f + %.0f = %.3f of |G|  pattern Gr %.0f + %.0f = %.3f of |G|\n",
			cur.get("qpgc_store_graph_nodes"), cur.get("qpgc_store_graph_edges"),
			rn, re, (rn+re)/g, pn, pe, (pn+pe)/g)
	}
	fmt.Fprintf(w, "rates   %.0f req/s  %.0f read/s  %.0f update/s  %.0f wave/s\n",
		rate(cur, prev, dt, "qpgc_server_requests_total"),
		rate(cur, prev, dt, "qpgc_store_reads_total"),
		rate(cur, prev, dt, "qpgc_store_updates_total"),
		rate(cur, prev, dt, "qpgc_sched_waves_total"))
	fmt.Fprintf(w, "query   p50 %s  p95 %s  p99 %s  max %s  (n=%.0f)\n",
		ms(cur.get(`qpgc_query_seconds{quantile="0.5"}`)),
		ms(cur.get(`qpgc_query_seconds{quantile="0.95"}`)),
		ms(cur.get(`qpgc_query_seconds{quantile="0.99"}`)),
		ms(cur.get("qpgc_query_seconds_max")),
		cur.get("qpgc_query_seconds_count"))
	if n := cur.get("qpgc_store_apply_seconds_count"); n > 0 {
		// The write path's budget per stage (medians; scc, reach and pattern
		// are per batch, wal and publish per coalesced group).
		stage := func(name string) string {
			return ms(cur.get(`qpgc_store_apply_seconds{stage="` + name + `",quantile="0.5"}`))
		}
		// Next to the clocks, the paper's measure of the same batches — the
		// components incRCM singled out and the nodes incPCM re-signed, counts
		// on the exposition's 1e-9 scale — incPCM's depth, and the SCC splits
		// the condensation re-decomposed whole instead of peeling.
		aff := func(scheme string) float64 {
			return 1e9 * cur.get(`qpgc_store_aff{scheme="`+scheme+`",quantile="0.5"}`)
		}
		fmt.Fprintf(w, "write   p50 %s  p99 %s  =  wal %s + scc %s + reach %s + pattern %s + publish %s  (n=%.0f)  |  aff p50 reach %.0f pattern %.0f  levels %.0f (rebuilt %.0f, from seed %.0f)  scc resplits %.0f\n",
			ms(cur.get(`qpgc_store_apply_seconds{quantile="0.5"}`)),
			ms(cur.get(`qpgc_store_apply_seconds{quantile="0.99"}`)),
			stage("wal"), stage("scc"), stage("reach"), stage("pattern"), stage("publish"), n,
			aff("reach"), aff("pattern"),
			cur.get("qpgc_store_pattern_levels"),
			cur.get("qpgc_store_pattern_level_rebuilds_total"),
			cur.get("qpgc_store_pattern_fallbacks_total"),
			cur.get("qpgc_store_scc_resplits_total"))
		// Publish by stage: the writer's four, then what moved off it (the
		// 2-hop index, built by the first reader that wants it). The rows
		// histogram counts rows on the exposition's 1e-9 scale.
		pub := func(name string) string {
			return ms(cur.get(`qpgc_store_publish_seconds{stage="` + name + `",quantile="0.5"}`))
		}
		fmt.Fprintf(w, "publish freeze %s + reach %s + pattern %s + swap %s  |  index %s on readers (n=%.0f)  |  rows patched p50 %.0f\n",
			pub("freeze"), pub("reach"), pub("pattern"), pub("swap"), pub("index"),
			cur.get(`qpgc_store_publish_seconds_count{stage="index"}`),
			1e9*cur.get(`qpgc_store_publish_patched_rows{quantile="0.5"}`))
	}
	fmt.Fprintf(w, "server  inflight %.0f  epoch-waits %.0f  rejects %.0f\n",
		cur.get("qpgc_server_inflight"),
		cur.get("qpgc_server_epoch_waits_total"),
		cur.get("qpgc_server_rejects_total"))
	if n := cur.get("qpgc_sched_waves_total"); n > 0 {
		lanes := cur.get("qpgc_sched_lanes_total")
		hub := cur.get("qpgc_sched_hub_lanes_total")
		var hubPct float64
		if lanes > 0 {
			hubPct = 100 * hub / lanes
		}
		fmt.Fprintf(w, "sched   waves %.0f  lanes %.0f  clustered %.0f  hub-cached %.0f (%.0f%%)\n",
			n, lanes,
			cur.get("qpgc_sched_clustered_lanes_total"),
			hub, hubPct)
	}
	if n := cur.get("qpgc_wal_appends_total"); n > 0 {
		commits := cur.get("qpgc_wal_group_commits_total")
		var group float64
		if commits > 0 {
			group = cur.get("qpgc_wal_group_commit_batches_total") / commits
		}
		fmt.Fprintf(w, "wal     %.0f appends  %.0f commits (%.1f/commit)  fsync p99 %s  %.0f segs %.0f MiB\n",
			n, commits, group,
			ms(cur.get(`qpgc_wal_fsync_seconds{quantile="0.99"}`)),
			cur.get("qpgc_wal_segments"),
			cur.get("qpgc_wal_segment_bytes")/(1<<20))
	}
	// The replication row: a replica's own tail (rounds are long polls, so
	// an idle follower's count stands still) and, on any endpoint others tail
	// from, how many of their rounds are parked here right now — the number
	// to look at when a follower stalls.
	if role == "replica" {
		fmt.Fprintf(w, "replica lag %.0f epochs  leader %.0f  shipped %.1f MiB  reconnects %.0f  resyncs %.0f  tail rounds %.0f  followers parked %.0f\n",
			cur.get("qpgc_replica_lag_epochs"),
			cur.get("qpgc_replica_leader_epoch"),
			cur.get("qpgc_replica_shipped_bytes_total")/(1<<20),
			cur.get("qpgc_replica_reconnects_total"),
			cur.get("qpgc_replica_resyncs_total"),
			cur.get("qpgc_replica_tail_rounds_total"),
			cur.get("qpgc_server_tail_held"))
		// How shipped groups landed, the follower's two transitions: a diff
		// of the source's views or an image of them, patched either way with
		// no maintainer.
		applied := func(path string) (float64, string) {
			return cur.get(`qpgc_replica_apply_seconds_count{path="` + path + `"}`),
				ms(cur.get(`qpgc_replica_apply_seconds{path="` + path + `",quantile="0.5"}`))
		}
		effects, effectP50 := applied("effect")
		images, imageP50 := applied("image")
		fmt.Fprintf(w, "apply   effects %.0f (p50 %s)  images %.0f (p50 %s)\n", effects, effectP50, images, imageP50)
	} else if held := cur.get("qpgc_server_tail_held"); held > 0 {
		fmt.Fprintf(w, "repl    followers parked %.0f\n", held)
	}
	if n := cur.get("qpgc_health_retries_total") + cur.get("qpgc_health_degradations_total") +
		cur.get("qpgc_scrub_passes_total"); n > 0 {
		fmt.Fprintf(w, "health  retries %.0f  degradations %.0f (%.1fs)  recoveries %.0f  scrubs %.0f (quarantined %.0f, repairs %.0f)\n",
			cur.get("qpgc_health_retries_total"),
			cur.get("qpgc_health_degradations_total"),
			cur.get("qpgc_health_degraded_seconds_total"),
			cur.get("qpgc_health_recoveries_total"),
			cur.get("qpgc_scrub_passes_total"),
			cur.get("qpgc_scrub_quarantined_total"),
			cur.get("qpgc_scrub_repairs_total"))
	}
	if faults := seriesWithPrefix(cur, "qpgc_faults_fired_total{"); len(faults) > 0 {
		fmt.Fprintf(w, "faults  %s\n", faults)
	}
}

// seriesWithPrefix summarizes labeled series like the fault counters:
// `kind="sync" 3, kind="write" 1`.
func seriesWithPrefix(s metricSample, prefix string) string {
	var keys []string
	for series := range s {
		if strings.HasPrefix(series, prefix) {
			keys = append(keys, series)
		}
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		label := strings.TrimSuffix(strings.TrimPrefix(k, prefix), "}")
		parts = append(parts, fmt.Sprintf("%s %.0f", label, s[k]))
	}
	return strings.Join(parts, ", ")
}

// ms renders a duration in seconds as a short human latency.
func ms(sec float64) string {
	switch {
	case sec <= 0:
		return "-"
	case sec < 0.001:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}
