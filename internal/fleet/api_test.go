package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snic/internal/device"
	"snic/internal/obs"
)

var update = flag.Bool("update", false, "rewrite goldens")

// newTestServer builds a manager with a small populated fleet and a
// live API server over it.
func newTestServer(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(Config{Seed: 42, Workers: 2, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m))
	t.Cleanup(srv.Close)
	return m, srv
}

// do issues one request and returns the response status and body.
func do(t *testing.T, srv *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// seedFleet populates the standard test fleet: two devices, one tenant
// with a two-core quota, one placement.
func seedFleet(t *testing.T, srv *httptest.Server) {
	t.Helper()
	for _, step := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/devices", `{"name":"nic-a","model":"snic"}`, 201},
		{"POST", "/v1/devices", `{"name":"nic-b","model":"bluefield"}`, 201},
		{"POST", "/v1/tenants", `{"name":"acme","quota":{"cores":2}}`, 201},
		{"POST", "/v1/tenants/acme/nfs", `{"name":"fw"}`, 201},
	} {
		if got, body := do(t, srv, step.method, step.path, step.body); got != step.want {
			t.Fatalf("seed %s %s = %d, want %d\n%s", step.method, step.path, got, step.want, body)
		}
	}
}

// TestAPIStatusCodes is the northbound contract: malformed bodies are
// 400, unknown names are 404, conflicts are 409, wrong methods are 405.
func TestAPIStatusCodes(t *testing.T) {
	_, srv := newTestServer(t)
	seedFleet(t, srv)

	cases := []struct {
		name         string
		method, path string
		body         string
		want         int
	}{
		{"bad JSON body", "POST", "/v1/devices", `{"name":`, 400},
		{"unknown field", "POST", "/v1/devices", `{"name":"x","model":"snic","flavor":"large"}`, 400},
		{"device without model", "POST", "/v1/devices", `{"name":"x"}`, 400},
		{"unknown model", "POST", "/v1/devices", `{"name":"x","model":"martian"}`, 400},
		{"tenant without name", "POST", "/v1/tenants", `{}`, 400},
		{"bad burst body", "POST", "/v1/burst", `[]`, 400},
		{"bad advance body", "POST", "/v1/advance", `{"cycles":"soon"}`, 400},
		{"nf without name", "POST", "/v1/tenants/acme/nfs", `{}`, 400},
		// 2^44 MB is the first count whose byte value wraps 64 bits.
		{"device mem_mb overflow", "POST", "/v1/devices", `{"name":"x","model":"snic","mem_mb":17592186044416}`, 400},
		// 2^30 MB fits 64 bits as bytes but is far above MaxDeviceMemMB.
		{"device mem_mb above the cap", "POST", "/v1/devices", `{"name":"x","model":"snic","mem_mb":1073741824}`, 400},
		{"quota mem_mb overflow", "POST", "/v1/tenants", `{"name":"x","quota":{"mem_mb":17592186044416}}`, 400},
		{"nf mem_mb overflow", "POST", "/v1/tenants/acme/nfs", `{"name":"x","mem_mb":17592186044416}`, 400},
		{"churn mem_mb overflow", "POST", "/v1/churn", `{"mem_mb":17592186044416}`, 400},
		{"churn negative events", "POST", "/v1/churn", `{"events":-1}`, 400},
		{"churn negative target", "POST", "/v1/churn", `{"target":-1}`, 400},
		{"churn negative batch", "POST", "/v1/churn", `{"batch":-1}`, 400},

		{"place on unknown tenant", "POST", "/v1/tenants/ghost/nfs", `{"name":"fw"}`, 404},
		{"evict unknown tenant", "DELETE", "/v1/tenants/ghost", "", 404},
		{"remove unknown nf", "DELETE", "/v1/tenants/acme/nfs/nope", "", 404},
		{"drain unknown device", "POST", "/v1/devices/ghost/drain", "", 404},
		{"fail unknown device", "POST", "/v1/devices/ghost/fail", "", 404},
		{"unknown device verb", "POST", "/v1/devices/nic-a/explode", "", 404},

		{"double admit", "POST", "/v1/tenants", `{"name":"acme"}`, 409},
		{"double add device", "POST", "/v1/devices", `{"name":"nic-a","model":"snic"}`, 409},
		{"double place", "POST", "/v1/tenants/acme/nfs", `{"name":"fw"}`, 409},
		{"nf mem_mb at the byte limit", "POST", "/v1/tenants/acme/nfs", `{"name":"x","mem_mb":17592186044415}`, 409},
		{"undrain active device", "POST", "/v1/devices/nic-a/undrain", "", 409},

		{"POST on oper", "POST", "/v1/oper", "", 405},
		{"GET on burst", "GET", "/v1/burst", "", 405},
		{"PUT on tenants", "PUT", "/v1/tenants", `{}`, 405},
		{"GET on tenant sub", "GET", "/v1/tenants/acme/nfs", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, body := do(t, srv, tc.method, tc.path, tc.body)
			if got != tc.want {
				t.Errorf("%s %s = %d, want %d\n%s", tc.method, tc.path, got, tc.want, body)
			}
			if !strings.Contains(body, "{") {
				t.Errorf("response is not a JSON envelope: %q", body)
			}
		})
	}
}

// TestAPIQuotaAndCapacity drives the two placement conflicts end to
// end: the tenant's two-core quota rejects the third NF, and a fresh
// unlimited tenant eventually exhausts device capacity.
func TestAPIQuotaAndCapacity(t *testing.T) {
	_, srv := newTestServer(t)
	seedFleet(t, srv)

	if got, body := do(t, srv, "POST", "/v1/tenants/acme/nfs", `{"name":"nf2"}`); got != 201 {
		t.Fatalf("second NF = %d\n%s", got, body)
	}
	got, body := do(t, srv, "POST", "/v1/tenants/acme/nfs", `{"name":"nf3"}`)
	if got != 409 || !strings.Contains(body, "quota") {
		t.Fatalf("quota overrun = %d, want 409 quota error\n%s", got, body)
	}

	if got, _ := do(t, srv, "POST", "/v1/tenants", `{"name":"greedy"}`); got != 201 {
		t.Fatalf("admit greedy = %d", got)
	}
	placed := 0
	for i := 0; i < 64; i++ {
		got, body := do(t, srv, "POST", "/v1/tenants/greedy/nfs",
			`{"name":"nf`+string(rune('a'+i))+`"}`)
		if got == 201 {
			placed++
			continue
		}
		if got != 409 || !strings.Contains(body, "capacity") {
			t.Fatalf("placement %d = %d, want 409 capacity error\n%s", i, got, body)
		}
		break
	}
	if placed == 0 || placed >= 64 {
		t.Fatalf("capacity never exhausted (placed %d)", placed)
	}
}

// TestAPIMemQuotaOverflow is the quota case of the mem_mb wrap: a
// tenant admitted with a 2 MB quota fills it with two 1 MB NFs, and an
// NF whose mem_mb wraps to zero bytes must be refused as malformed
// rather than placed as a zero-byte demand.
func TestAPIMemQuotaOverflow(t *testing.T) {
	m, srv := newTestServer(t)
	for _, step := range []struct {
		path, body string
		want       int
	}{
		{"/v1/devices", `{"name":"nic-a","model":"snic"}`, 201},
		{"/v1/tenants", `{"name":"acme","quota":{"mem_mb":2}}`, 201},
		{"/v1/tenants/acme/nfs", `{"name":"nf1","mem_mb":1}`, 201},
		{"/v1/tenants/acme/nfs", `{"name":"nf2","mem_mb":1}`, 201},
		{"/v1/tenants/acme/nfs", `{"name":"nf3","mem_mb":1}`, 409},
		{"/v1/tenants/acme/nfs", `{"name":"nf4","mem_mb":17592186044416}`, 400},
	} {
		if got, body := do(t, srv, "POST", step.path, step.body); got != step.want {
			t.Fatalf("POST %s %s = %d, want %d\n%s", step.path, step.body, got, step.want, body)
		}
	}
	if st := m.Stats(); st.Placed != 2 {
		t.Fatalf("placed %d NFs, want 2", st.Placed)
	}
}

// TestAPIDeviceMemCap checks MaxDeviceMemMB from both sides: it admits
// every registered model's default memory and every device a scenario
// adds, a device exactly at the cap is built, and one MB more is
// refused before any model allocates its frame-owner table.
func TestAPIDeviceMemCap(t *testing.T) {
	for _, model := range device.Models() {
		nic, err := device.New(device.Spec{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if mb := nic.MemBytes() >> 20; mb > MaxDeviceMemMB {
			t.Errorf("model %s defaults to %d MB, above the %d MB cap", model, mb, MaxDeviceMemMB)
		}
	}
	paths, err := filepath.Glob(filepath.Join("scenarios", "*", "scenario.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	for _, p := range paths {
		sc, err := LoadScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sc.Steps {
			if st.Method != "POST" || st.Path != "/v1/devices" {
				continue
			}
			var spec DeviceSpec
			if err := json.Unmarshal(st.Body, &spec); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if spec.MemMB > MaxDeviceMemMB {
				t.Errorf("%s: device %s has mem_mb %d, above the %d MB cap", p, spec.Name, spec.MemMB, MaxDeviceMemMB)
			}
		}
	}

	_, srv := newTestServer(t)
	at := fmt.Sprintf(`{"name":"big","model":"snic","mem_mb":%d}`, MaxDeviceMemMB)
	if got, body := do(t, srv, "POST", "/v1/devices", at); got != 201 {
		t.Fatalf("device at the cap = %d, want 201\n%s", got, body)
	}
	over := fmt.Sprintf(`{"name":"bigger","model":"snic","mem_mb":%d}`, MaxDeviceMemMB+1)
	if got, body := do(t, srv, "POST", "/v1/devices", over); got != 400 || !strings.Contains(body, "cap") {
		t.Fatalf("device over the cap = %d, want 400 cap error\n%s", got, body)
	}
}

// TestAPIBodyLimit sends bodies over maxBodyBytes: one whose JSON value
// itself is oversized and one whose valid value is followed by padding.
// Both must be refused whole with a 413 JSON envelope, and neither may
// leave a partially applied request behind.
func TestAPIBodyLimit(t *testing.T) {
	m, srv := newTestServer(t)
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct{ name, body string }{
		{"oversized value", `{"name":"` + strings.Repeat("x", maxBodyBytes) + `","model":"snic"}`},
		{"valid value then padding", `{"name":"padded","model":"snic"}` + pad},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, body := do(t, srv, "POST", "/v1/devices", tc.body)
			if got != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413\n%.200s", got, body)
			}
			var env apiError
			if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == "" {
				t.Fatalf("response is not a JSON error envelope: %.200s", body)
			}
		})
	}
	if n := len(m.Configured().Devices); n != 0 {
		t.Fatalf("%d devices added by refused bodies, want 0", n)
	}
	if got, body := do(t, srv, "POST", "/v1/devices", `{"name":"small","model":"snic"}`+strings.Repeat(" ", 1024)); got != 201 {
		t.Fatalf("small padded body = %d, want 201\n%s", got, body)
	}
}

// TestAPIOperGoldenRoundTrip pins the oper-state wire format: the
// /v1/oper response must unmarshal into OperState and re-marshal to the
// identical bytes (no unknown fields, no float drift, stable order),
// and the whole dump must match the golden.
func TestAPIOperGoldenRoundTrip(t *testing.T) {
	_, srv := newTestServer(t)
	seedFleet(t, srv)
	if got, body := do(t, srv, "POST", "/v1/burst", `{"packets":4,"accel_ops":1,"bus_ops":1}`); got != 200 {
		t.Fatalf("burst = %d\n%s", got, body)
	}

	got, body := do(t, srv, "GET", "/v1/oper", "")
	if got != 200 {
		t.Fatalf("GET /v1/oper = %d", got)
	}

	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var st OperState
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("oper dump does not round-trip into OperState: %v", err)
	}
	re, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(re)+"\n" != body {
		t.Errorf("re-marshaled oper state differs from wire bytes:\n%s\n--- wire ---\n%s", re, body)
	}

	path := filepath.Join("testdata", "oper_roundtrip.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if body != string(want) {
		t.Errorf("oper dump differs from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, body, want)
	}
}

// TestAPIExports sanity-checks the observability endpoints: canonical
// headers, text content type.
func TestAPIExports(t *testing.T) {
	_, srv := newTestServer(t)
	seedFleet(t, srv)
	if got, body := do(t, srv, "GET", "/v1/metrics", ""); got != 200 ||
		!strings.HasPrefix(body, "# snic-metrics v1\n") {
		t.Errorf("metrics export = %d, %q...", got, body[:min(40, len(body))])
	}
	if got, body := do(t, srv, "GET", "/v1/trace", ""); got != 200 ||
		!strings.HasPrefix(body, "# snic-trace v1\n") {
		t.Errorf("trace export = %d, %q...", got, body[:min(40, len(body))])
	}
}

// TestAPIMetricsPromFormat: ?format=prom serves Prometheus exposition
// that passes the in-repo validator; unknown formats are 400.
func TestAPIMetricsPromFormat(t *testing.T) {
	_, srv := newTestServer(t)
	seedFleet(t, srv)
	if _, body := do(t, srv, "POST", "/v1/burst", `{"packets":64}`); body == "" {
		t.Fatal("burst failed")
	}
	got, body := do(t, srv, "GET", "/v1/metrics?format=prom", "")
	if got != 200 {
		t.Fatalf("prom export = %d\n%s", got, body)
	}
	if !strings.Contains(body, "# TYPE snic_") {
		t.Fatalf("prom export carries no snic_ families:\n%s", body)
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("prom export fails validator: %v\n%s", err, body)
	}
	if got, _ := do(t, srv, "GET", "/v1/metrics?format=xml", ""); got != 400 {
		t.Errorf("unknown format = %d, want 400", got)
	}
	if got, body := do(t, srv, "GET", "/v1/metrics?format=text", ""); got != 200 ||
		!strings.HasPrefix(body, "# snic-metrics v1\n") {
		t.Errorf("explicit text format = %d, %q...", got, body[:min(40, len(body))])
	}
}

// TestAPIProgressShape pins the /v1/progress wire contract: a JSON
// object with every telemetry field, live against a manager with an
// attached progress collector — and a sane all-zero shape without one.
func TestAPIProgressShape(t *testing.T) {
	m, err := NewManager(Config{
		Seed: 42, Workers: 2,
		Obs:      obs.NewRegistry(),
		Progress: obs.NewProgress(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m))
	t.Cleanup(srv.Close)
	seedFleet(t, srv)
	if got, body := do(t, srv, "POST", "/v1/burst", `{"packets":64}`); got != 200 {
		t.Fatalf("burst = %d\n%s", got, body)
	}
	got, body := do(t, srv, "GET", "/v1/progress", "")
	if got != 200 {
		t.Fatalf("progress = %d\n%s", got, body)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress is not a JSON object: %v\n%s", err, body)
	}
	for _, field := range []string{
		"experiment", "jobs_total", "jobs_done", "jobs_failed",
		"items", "items_total", "elapsed_sec", "items_per_sec",
		"eta_sec", "since_save_sec", "active",
	} {
		if _, ok := snap[field]; !ok {
			t.Errorf("progress JSON missing %q: %s", field, body)
		}
	}
	// The burst fanned out engine jobs and they all drained.
	if snap["jobs_total"].(float64) < 1 || snap["jobs_done"] != snap["jobs_total"] {
		t.Errorf("jobs = %v/%v, want all burst jobs done",
			snap["jobs_done"], snap["jobs_total"])
	}
	if got, _ := do(t, srv, "POST", "/v1/progress", ""); got != 405 {
		t.Errorf("POST /v1/progress = %d, want 405", got)
	}

	// No collector attached: still 200 with the unknown-state snapshot.
	_, bare := newTestServer(t)
	got, body = do(t, bare, "GET", "/v1/progress", "")
	if got != 200 || !strings.Contains(body, `"jobs_total": 0`) {
		t.Errorf("detached progress = %d, %s", got, body)
	}
}

// TestAPIConfigReflectsDeclarations checks /v1/config reports what was
// declared, not what happened: specs and quotas, no placements.
func TestAPIConfigReflectsDeclarations(t *testing.T) {
	_, srv := newTestServer(t)
	seedFleet(t, srv)
	got, body := do(t, srv, "GET", "/v1/config", "")
	if got != 200 {
		t.Fatalf("GET /v1/config = %d", got)
	}
	var st ConfigState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Devices) != 2 || st.Devices[0].Name != "nic-a" || st.Devices[1].Name != "nic-b" {
		t.Errorf("config devices = %+v", st.Devices)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Quota.Cores != 2 {
		t.Errorf("config tenants = %+v", st.Tenants)
	}
	if strings.Contains(body, "placements") {
		t.Errorf("config dump leaks oper state:\n%s", body)
	}
}
