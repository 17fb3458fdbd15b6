package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// API is the fleet's northbound handler: a stdlib net/http mux serving
// config, oper state, control verbs, and observability exports as JSON
// (and the canonical text formats for metrics/traces). The handler
// itself holds no state — every request delegates to the Manager, whose
// single mutex serializes the event order the goldens pin.
//
// Routes:
//
//	GET  /v1/config            declarative state (devices, tenants)
//	GET  /v1/oper              operational snapshot (placements, stats)
//	GET  /v1/oper/stats        scheduler counters only
//	POST /v1/devices           add a device           {DeviceSpec}
//	POST /v1/devices/<n>/drain drain (atomic migrate-away)
//	POST /v1/devices/<n>/undrain
//	POST /v1/devices/<n>/fail  failover (best-effort re-place)
//	POST /v1/tenants           admit a tenant         {name, quota}
//	DELETE /v1/tenants/<n>     evict (tears down its NFs)
//	POST /v1/tenants/<n>/nfs   place an NF            {NFSpec}
//	DELETE /v1/tenants/<n>/nfs/<nf>  remove one placement
//	POST /v1/burst             drive one traffic burst {WorkloadSpec}
//	POST /v1/churn             drive one serverless-churn run {ChurnSpec}
//	POST /v1/advance           advance the clock       {"cycles": n}
//	GET  /v1/metrics           obs metric dump (text, "# snic-metrics v1";
//	                           ?format=prom for Prometheus exposition)
//	GET  /v1/trace             obs trace (text)
//	GET  /v1/progress          live run telemetry (JSON snapshot)
type API struct {
	m   *Manager
	mux *http.ServeMux
}

// NewAPI builds the northbound handler over m.
func NewAPI(m *Manager) *API {
	a := &API{m: m, mux: http.NewServeMux()}
	a.mux.HandleFunc("/v1/config", a.getOnly(a.handleConfig))
	a.mux.HandleFunc("/v1/oper", a.getOnly(a.handleOper))
	a.mux.HandleFunc("/v1/oper/stats", a.getOnly(a.handleStats))
	a.mux.HandleFunc("/v1/devices", a.postOnly(a.handleAddDevice))
	a.mux.HandleFunc("/v1/devices/", a.handleDeviceVerb)
	a.mux.HandleFunc("/v1/tenants", a.postOnly(a.handleAdmit))
	a.mux.HandleFunc("/v1/tenants/", a.handleTenantSub)
	a.mux.HandleFunc("/v1/burst", a.postOnly(a.handleBurst))
	a.mux.HandleFunc("/v1/churn", a.postOnly(a.handleChurn))
	a.mux.HandleFunc("/v1/advance", a.postOnly(a.handleAdvance))
	a.mux.HandleFunc("/v1/metrics", a.getOnly(a.handleMetrics))
	a.mux.HandleFunc("/v1/trace", a.getOnly(a.handleTrace))
	a.mux.HandleFunc("/v1/progress", a.getOnly(a.handleProgress))
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds every request body. The largest body a scenario
// or benchmark sends is a few hundred bytes.
const maxBodyBytes = 1 << 20

// status maps manager errors onto HTTP codes: unknown names are 404,
// conflicts (duplicates, quota, capacity, state) are 409, bodies over
// maxBodyBytes are 413, malformed requests are 400.
func status(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNoTenant), errors.Is(err, ErrNoDevice), errors.Is(err, ErrNoNF):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrQuota),
		errors.Is(err, ErrNoCapacity), errors.Is(err, ErrDeviceState):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(buf, '\n'))
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, status(err), apiError{Error: err.Error()})
}

// decode strictly parses the request body into v (unknown fields are
// errors, so typos in scenario scripts fail loudly as 400s). The body is
// read through http.MaxBytesReader and drained after the JSON value, so
// a body over maxBodyBytes is refused as a whole (413) even when its
// first value would parse.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleet: bad request body: %w", err)
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return fmt.Errorf("fleet: bad request body: %w", err)
	}
	return nil
}

func (a *API) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "GET only"})
			return
		}
		h(w, r)
	}
}

func (a *API) postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST only"})
			return
		}
		h(w, r)
	}
}

func (a *API) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.m.Configured())
}

func (a *API) handleOper(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.m.Oper())
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.m.StatsView())
}

func (a *API) handleAddDevice(w http.ResponseWriter, r *http.Request) {
	var spec DeviceSpec
	if err := decode(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	if err := a.m.AddDevice(spec); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, spec)
}

// handleDeviceVerb routes POST /v1/devices/<name>/{drain,undrain,fail}.
func (a *API) handleDeviceVerb(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST only"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/devices/")
	name, verb, ok := strings.Cut(rest, "/")
	if !ok || name == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "want /v1/devices/<name>/<verb>"})
		return
	}
	var err error
	switch verb {
	case "drain":
		err = a.m.Drain(name)
	case "undrain":
		err = a.m.Undrain(name)
	case "fail":
		err = a.m.Fail(name)
	default:
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown device verb " + verb})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"device": name, "verb": verb})
}

// admitReq is the POST /v1/tenants body.
type admitReq struct {
	Name  string       `json:"name"`
	Quota ResourceSpec `json:"quota"`
}

func (a *API) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req admitReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := a.m.Admit(req.Name, req.Quota); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, req)
}

// handleTenantSub routes everything under /v1/tenants/<name>:
// DELETE <name>, POST <name>/nfs, DELETE <name>/nfs/<nf>.
func (a *API) handleTenantSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
	name, sub, hasSub := strings.Cut(rest, "/")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "want /v1/tenants/<name>"})
		return
	}
	switch {
	case !hasSub && r.Method == http.MethodDelete:
		if err := a.m.Evict(name); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"evicted": name})
	case sub == "nfs" && r.Method == http.MethodPost:
		var spec NFSpec
		if err := decode(w, r, &spec); err != nil {
			writeErr(w, err)
			return
		}
		pl, err := a.m.Place(name, spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, placementOper(pl))
	case strings.HasPrefix(sub, "nfs/") && r.Method == http.MethodDelete:
		nf := strings.TrimPrefix(sub, "nfs/")
		if err := a.m.Remove(name, nf); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"removed": name + "/" + nf})
	default:
		writeJSON(w, http.StatusMethodNotAllowed,
			apiError{Error: "unsupported method or path under /v1/tenants/"})
	}
}

func (a *API) handleBurst(w http.ResponseWriter, r *http.Request) {
	var spec WorkloadSpec
	if err := decode(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	res, err := a.m.Burst(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *API) handleChurn(w http.ResponseWriter, r *http.Request) {
	var spec ChurnSpec
	if err := decode(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	res, err := a.m.Churn(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// advanceReq is the POST /v1/advance body.
type advanceReq struct {
	Cycles uint64 `json:"cycles"`
}

func (a *API) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	clock := a.m.Advance(req.Cycles)
	writeJSON(w, http.StatusOK, map[string]uint64{"clock": clock})
}

// handleMetrics serves the registry's canonical sorted text dump — the
// worker-invariant "# snic-metrics v1" format the scenario suite pins —
// or, with ?format=prom, the Prometheus text exposition so a stock
// scrape config can point at a live snicd.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// The northbound export endpoint is the sanctioned reader: it runs
		// on the API path, never inside the simulation.
		//lint:allow transitive-determinism northbound metrics export endpoint, not a simulation-path reader
		fmt.Fprint(w, a.m.cfg.Obs.DumpMetrics())
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//lint:allow transitive-determinism northbound metrics export endpoint, not a simulation-path reader
		fmt.Fprint(w, a.m.cfg.Obs.PromText())
	default:
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: "unknown metrics format " + r.URL.Query().Get("format")})
	}
}

// handleTrace serves the registry's deterministic text trace.
func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//lint:allow transitive-determinism northbound trace export endpoint, not a simulation-path reader
	fmt.Fprint(w, a.m.cfg.Obs.TraceText())
}

// handleProgress serves the live-run telemetry snapshot. Unlike the
// deterministic exports above, this payload is wall-clock-fed and
// changes between identical runs — it exists for humans and watchers
// (snicstat -watch), never for goldens.
func (a *API) handleProgress(w http.ResponseWriter, r *http.Request) {
	//lint:allow transitive-determinism northbound progress endpoint reads the quarantined live plane, not a simulation-path reader
	snap := a.m.cfg.Progress.Snapshot()
	writeJSON(w, http.StatusOK, snap)
}
