package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsServerRoutes fetches every route the side-listener serves,
// pprof's heap profile included.
func TestMetricsServerRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("qpgc_requests_total").Inc()
	ms, err := ListenAndServe("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/slowlog", "/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		if code, _ := get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
	if _, body := get("/metrics"); !strings.Contains(body, "qpgc_requests_total 1") {
		t.Errorf("/metrics lacks the registry's counter:\n%s", body)
	}
	if code, _ := get("/debug/pprof/nosuchprofile"); code != http.StatusNotFound {
		t.Errorf("GET an unknown profile = %d, want 404", code)
	}
}
