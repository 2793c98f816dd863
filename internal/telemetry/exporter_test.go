package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"lbmib/internal/grid"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestExporterEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lbmib_steps_total", "Completed time steps.").Add(17)
	wd := NewWatchdog(WatchdogConfig{})

	e, err := Serve("127.0.0.1:0", reg, wd)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := "http://" + e.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "lbmib_steps_total 17") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}

	code, body = get(t, base+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json: code=%d", code)
	}
	var series []Series
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if len(series) != 1 || series[0].Value != 17 {
		t.Fatalf("unexpected JSON snapshot: %+v", series)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz healthy: code=%d body=%q", code, body)
	}

	// pprof must be mounted (index page lists the profiles).
	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}

	// Flag the watchdog; /healthz must flip to 503 with the reason.
	g := grid.New(2, 2, 2)
	g.Macros()[0].Rho = math.NaN()
	d, err := grid.NewDigestGrid(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	wd.Check(9, d) //nolint:errcheck // the flip is asserted below
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "step 9") {
		t.Fatalf("/healthz unhealthy: code=%d body=%q", code, body)
	}
}

func TestExporterNilRegistryAndWatchdog(t *testing.T) {
	e, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := "http://" + e.Addr()
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics with nil registry: code=%d", code)
	}
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz with nil watchdog: code=%d body=%q", code, body)
	}
}

func TestExporterBadAddr(t *testing.T) {
	if _, err := Serve("127.0.0.1:-1", nil, nil); err == nil {
		t.Fatal("bad address accepted")
	}
}
