package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smappic/internal/campaign"
	"smappic/internal/core"
	"smappic/internal/fleetsrv"
	"smappic/internal/kernel"
)

// The fleet-sweep load fits a 2-core host: two workers, two tenants in a
// closed loop, every campaign three small IS points.
const (
	fleetWorkers = 2
	// waitPoll is how often a tenant asks whether its campaign completed.
	waitPoll = 20 * time.Millisecond
	// sampleEvery picks the campaigns whose reports are compared with an
	// in-process campaign.Runner run: each tenant's 0th, 8th, 16th, ...
	sampleEvery = 8
	// thinkMax bounds a tenant's seeded pause before each submission.
	// Without it the two tenants lock into phase with the workers' idle
	// poll for a whole run, and throughput swings by a fifth between runs.
	// A pause as long as the poll (200 ms) makes it worse: the median
	// campaign then falls among the executed campaigns' short waits, and
	// swings by a sixth.
	thinkMax = 40 * time.Millisecond
)

var (
	fleetShapes = []string{"1x1x2", "2x1x2", "2x2x2"}
	tenants     = []string{"tenant-a", "tenant-b"}
)

// probe is the benchmark's own http.Handler around fleetsrv.Server.Handler.
// It times every request and reads the lease, submit and result traffic for
// queue waits, execution times and simulated cycles. Counts feed the
// end-to-end metrics while timed is set; latencies and ratios feed the
// per-layer metrics for requests that arrive while tracing is on.
type probe struct {
	next       http.Handler
	rec        *tracer
	registered chan struct{} // one send per worker registration

	mu          sync.Mutex
	timed       bool
	lat         map[string][]float64 // route -> handler ms
	leases      int
	emptyLeases int
	leaseAt     map[string]time.Time // lease id -> grant
	submitAt    map[string]time.Time // campaign id -> submit answered, until its first grant
	queueWait   []float64            // ms
	exec        []float64            // s, executed points
	tracedExec  []float64            // s
	cycles      uint64               // simulated cycles of executed points
	model       modelCounts
}

func newProbe(next http.Handler, rec *tracer) *probe {
	return &probe{
		next:       next,
		rec:        rec,
		registered: make(chan struct{}, fleetWorkers),
		lat:        map[string][]float64{},
		leaseAt:    map[string]time.Time{},
		submitAt:   map[string]time.Time{},
	}
}

func (pr *probe) setTimed(on bool) {
	pr.mu.Lock()
	pr.timed = on
	pr.mu.Unlock()
}

// route names a fleet API call.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/campaigns":
		return "submit"
	case strings.HasPrefix(p, "/api/workers/"):
		return strings.TrimPrefix(p, "/api/workers/")
	case strings.HasSuffix(p, "/report"):
		return "report"
	case strings.HasPrefix(p, "/api/campaigns/"):
		return "status"
	}
	return "other"
}

// captureWriter keeps the status and, when asked, the body of a response.
type captureWriter struct {
	http.ResponseWriter
	status int
	keep   bool
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.keep {
		c.body.Write(b)
	}
	return c.ResponseWriter.Write(b)
}

// resultBody is the part of a fleetsrv result request the probe reads.
type resultBody struct {
	LeaseID    string          `json:"lease_id"`
	CampaignID string          `json:"campaign_id"`
	Status     campaign.Status `json:"status"`
	Result     *struct {
		SimulatedCycles uint64 `json:"simulated_cycles"`
	} `json:"result"`
}

// resultStats is the model counters of a result request, which only a
// traced request decodes.
type resultStats struct {
	Result struct {
		Stats map[string]uint64 `json:"stats"`
	} `json:"result"`
}

func (pr *probe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := route(r)
	arrived := time.Now()
	var body []byte
	if rt == "result" {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	cw := &captureWriter{ResponseWriter: w, status: http.StatusOK, keep: rt == "lease" || rt == "submit"}
	tr := pr.rec.active()
	start := time.Now()
	pr.next.ServeHTTP(cw, r)
	end := time.Now()
	op := pr.observe(rt, tr != nil, arrived, end, body, cw)
	if op == "" && strings.HasPrefix(r.URL.Path, "/api/campaigns/") {
		op = strings.Split(r.URL.Path, "/")[3]
	}
	tr.add("fleetsrv."+rt, op, -1, start, end)
	if tr != nil {
		pr.mu.Lock()
		if pr.timed {
			pr.lat[rt] = append(pr.lat[rt], ms(end.Sub(start)))
		}
		pr.mu.Unlock()
	}
}

// observe folds one answered request into the probe and returns the
// campaign it belongs to, when the traffic names one.
func (pr *probe) observe(rt string, traced bool, arrived, end time.Time, body []byte, cw *captureWriter) string {
	if cw.status != http.StatusOK {
		return ""
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	count := pr.timed && traced
	switch rt {
	case "register":
		select {
		case pr.registered <- struct{}{}:
		default:
		}
	case "submit":
		var resp fleetsrv.SubmitResponse
		if json.Unmarshal(cw.body.Bytes(), &resp) != nil {
			return ""
		}
		if resp.Jobs > resp.Cached {
			pr.submitAt[resp.CampaignID] = end
		}
		return resp.CampaignID
	case "lease":
		var resp fleetsrv.LeaseResponse
		if json.Unmarshal(cw.body.Bytes(), &resp) != nil {
			return ""
		}
		if count {
			pr.leases++
		}
		if resp.Job == nil {
			if count {
				pr.emptyLeases++
			}
			return ""
		}
		pr.leaseAt[resp.Job.LeaseID] = end
		if t, ok := pr.submitAt[resp.Job.CampaignID]; ok {
			delete(pr.submitAt, resp.Job.CampaignID)
			if count {
				pr.queueWait = append(pr.queueWait, ms(end.Sub(t)))
			}
		}
		return resp.Job.CampaignID
	case "result":
		var req resultBody
		if json.Unmarshal(body, &req) != nil {
			return ""
		}
		granted, ok := pr.leaseAt[req.LeaseID]
		delete(pr.leaseAt, req.LeaseID)
		if !ok || req.Status != campaign.StatusRun || req.Result == nil || !pr.timed {
			return req.CampaignID
		}
		d := arrived.Sub(granted).Seconds()
		pr.exec = append(pr.exec, d)
		pr.cycles += req.Result.SimulatedCycles
		var st resultStats
		if traced && json.Unmarshal(body, &st) == nil {
			pr.tracedExec = append(pr.tracedExec, d)
			for name, v := range st.Result.Stats {
				pr.model.add(name, v)
			}
			pr.model.cycles += req.Result.SimulatedCycles
		}
		return req.CampaignID
	}
	return ""
}

// fleetStack is one in-process fleet: a journaling server over a fresh
// cache, served on loopback through the probe, and its registered workers.
type fleetStack struct {
	url       string
	probe     *probe
	hs        *http.Server
	serveDone chan struct{}
	cancel    context.CancelFunc
	workers   sync.WaitGroup
}

// startFleet opens the cache, starts the server and returns once every
// worker registered.
func startFleet(dir string, rec *tracer) (*fleetStack, error) {
	cache, err := campaign.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	srv := fleetsrv.New(cache)
	srv.StateDir = filepath.Join(dir, "state")
	if err := srv.Load(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fs := &fleetStack{url: "http://" + ln.Addr().String(), probe: newProbe(srv.Handler(), rec), serveDone: make(chan struct{})}
	fs.hs = &http.Server{Handler: fs.probe}
	go func() {
		defer close(fs.serveDone)
		fs.hs.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	fs.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := &fleetsrv.Worker{Server: fs.url, Name: fmt.Sprintf("w%d", i), CacheDir: cache.Dir()}
		fs.workers.Add(1)
		go func() {
			defer fs.workers.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "perfbench: worker %s: %v\n", w.Name, err)
			}
		}()
	}
	for i := 0; i < fleetWorkers; i++ {
		select {
		case <-fs.probe.registered:
		case <-time.After(30 * time.Second):
			fs.stop()
			return nil, errors.New("fleet workers did not register within 30s")
		}
	}
	return fs, nil
}

// stop shuts the workers down and waits for them, then closes the server.
// Callers stop a fleet only once their tenants are done, so after the
// workers no request is in flight; Close rather than Shutdown, which would
// wait up to seconds for the clients' idle new connections to age out.
func (fs *fleetStack) stop() {
	fs.cancel()
	fs.workers.Wait()
	fs.hs.Close()
	<-fs.serveDone
}

// campaignRec is one tenant campaign as the client saw it.
type campaignRec struct {
	spec                campaign.Spec
	traced, sampled     bool
	wall                time.Duration
	points, cached      int
	complete, failedPts int
	report              []byte
	err                 error
}

// loopGate admits campaigns until the timed region is over and enough ran
// (or maxRun passed), and turns tracing on halfway in a traced run.
type loopGate struct {
	start   time.Time
	dur     time.Duration
	min     int64
	trace   bool
	rec     *tracer
	started atomic.Int64
}

func (g *loopGate) next() bool {
	el, n := time.Since(g.start), g.started.Load()
	if el >= g.dur && n >= g.min || el >= maxRun {
		return false
	}
	if g.trace && el >= g.dur/2 && n >= g.min/2 {
		g.rec.enable()
	}
	g.started.Add(1)
	return true
}

// tenantLoop is one closed-loop tenant: after a seeded think time it submits
// a campaign, waits for it and fetches the report, then starts over. Every
// third campaign repeats one of its own completed specs, which the server
// answers from the cache at submit; the rest carry fresh seeds and are
// executed.
func tenantLoop(ctx context.Context, o options, fs *fleetStack, rec *tracer, ci int, gate *loopGate) []campaignRec {
	c := &fleetsrv.Client{Server: fs.url}
	var done []campaign.Spec
	var out []campaignRec
	tracedSampled := false
	for n := 0; gate.next(); n++ {
		spec := campaign.Spec{
			Name:      fmt.Sprintf("perfbench-%d-%d", ci, n),
			Shapes:    fleetShapes,
			Workloads: []string{campaign.WorkloadIS},
			Seeds:     []uint64{splitmix(o.seed<<20^uint64(ci)<<16^uint64(n)) | 1},
			Keys:      o.fleetKeys,
		}
		repeat := n%3 == 2 && len(done) > 0
		if repeat {
			spec = done[splitmix(o.seed^uint64(ci)<<32^uint64(n))%uint64(len(done))]
		}
		time.Sleep(time.Duration(splitmix(o.seed^uint64(ci)<<40^uint64(n)<<1) % uint64(thinkMax)))
		tr := rec.active()
		// Besides every sampleEvery-th campaign, the first traced one is
		// compared too: it shows tracing leaves the report unchanged.
		sampled := n%sampleEvery == 0 || (tr != nil && !tracedSampled)
		tracedSampled = tracedSampled || (tr != nil && sampled)
		cr := runCampaign(ctx, c, tr, tenants[ci], spec, fmt.Sprintf("%s-%d", tenants[ci], n), sampled)
		if cr.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d: %v\n", tenants[ci], n, cr.err)
		} else if !repeat && cr.failedPts == 0 {
			done = append(done, spec)
		}
		out = append(out, cr)
	}
	return out
}

// aggregateView is the part of a campaign report the benchmark checks.
type aggregateView struct {
	Points   int               `json:"points"`
	Complete int               `json:"complete"`
	Failed   []json.RawMessage `json:"failed"`
	Skipped  []string          `json:"skipped"`
	Results  []struct {
		Sorted bool `json:"sorted"`
	} `json:"results"`
}

// reportFailures checks a campaign report of the given number of points:
// it returns the completed points and the failed ones, counting a failed,
// skipped or unsorted point and, when the report disagrees with itself or
// with the submission, every point.
func reportFailures(report []byte, points int) (complete, failed int, err error) {
	var agg aggregateView
	if err := json.Unmarshal(report, &agg); err != nil {
		return 0, points, fmt.Errorf("report: %w", err)
	}
	failed = agg.Points - agg.Complete
	for _, r := range agg.Results {
		if !r.Sorted {
			failed++
		}
	}
	if failed == 0 && (len(agg.Failed) > 0 || len(agg.Skipped) > 0) ||
		agg.Points != points || len(agg.Results) != agg.Complete || failed > points {
		failed = points
	}
	return agg.Complete, failed, nil
}

// runCampaign submits one campaign and times it to the fetched report.
func runCampaign(ctx context.Context, c *fleetsrv.Client, tr *tracer, tenant string, spec campaign.Spec, op string, sampled bool) campaignRec {
	cr := campaignRec{spec: spec, traced: tr != nil, sampled: sampled, points: len(spec.Shapes) * len(spec.Seeds)}
	t0 := time.Now()
	resp, err := c.Submit(ctx, tenant, 0, spec)
	t1 := time.Now()
	var t2, t3 time.Time
	var report []byte
	if err == nil {
		op = resp.CampaignID
		cr.points, cr.cached = resp.Jobs, resp.Cached
		_, err = c.Wait(ctx, resp.CampaignID, waitPoll)
		t2 = time.Now()
		if err == nil {
			report, err = c.Report(ctx, resp.CampaignID)
		}
		t3 = time.Now()
	}
	if err != nil {
		cr.err, cr.failedPts = err, cr.points
		return cr
	}
	root := tr.add("campaign", op, -1, t0, t3)
	tr.add("client.submit", op, root, t0, t1)
	tr.add("client.wait", op, root, t1, t2)
	tr.add("client.report", op, root, t2, t3)
	cr.wall = t3.Sub(t0)
	if cr.complete, cr.failedPts, err = reportFailures(report, cr.points); err != nil {
		cr.err = err
		return cr
	}
	if sampled {
		cr.report = report
	}
	return cr
}

// runFleetSweep times o.setupReps batches of fleet set-ups, starts the
// fleet it measures with, runs the two tenants for the timed region, stops
// the fleet and compares the sampled reports with in-process
// campaign.Runner runs.
func runFleetSweep(o options) (*measurement, error) {
	m := newMeasurement()
	rec := newTracer()
	base := filepath.Join(o.outDir, fmt.Sprintf("fleet-%d-seed%d", os.Getpid(), o.seed))
	defer os.RemoveAll(base)

	var builds, boots []float64
	cfg := core.DefaultConfig(2, 2, 2) // the largest campaign shape
	cfg.Core = core.CoreNone
	// Every set-up reopens one cache and state directory, empty, as a
	// restarted fleet would: a fresh directory per set-up would time the
	// shared disk's metadata writes, whose latency swings between runs by
	// half.
	nSetup := 0
	setupS, err := setupSeconds(o.setupReps, func() (time.Duration, error) {
		nSetup++
		t0 := time.Now()
		s, err := startFleet(filepath.Join(base, "setup"), rec)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		p, err := core.Build(cfg)
		t2 := time.Now()
		if err == nil {
			kernel.New(p, kernel.DefaultConfig())
		}
		t3 := time.Now()
		s.stop()
		builds = append(builds, ms(t2.Sub(t1)))
		boots = append(boots, ms(t3.Sub(t2)))
		return t3.Sub(t0), err
	})
	if err != nil {
		return nil, err
	}
	fs, err := startFleet(filepath.Join(base, "run"), rec)
	if err != nil {
		return nil, fmt.Errorf("fleet set-up: %w", err)
	}
	runtime.GC()
	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)
	mallocs := mstats.Mallocs
	gate := &loopGate{start: time.Now(), dur: time.Duration(o.seconds * float64(time.Second)), min: int64(o.minOps), trace: o.trace, rec: rec}
	fs.probe.setTimed(true)
	recs := make([][]campaignRec, len(tenants))
	var wg sync.WaitGroup
	for ci := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[ci] = tenantLoop(context.Background(), o, fs, rec, ci, gate)
		}()
	}
	wg.Wait()
	elapsed := time.Since(gate.start)
	fs.probe.setTimed(false)
	runtime.ReadMemStats(&mstats)
	mallocs = mstats.Mallocs - mallocs
	peakRSS := peakRSSMiB() // before the reference runs, which are the benchmark's own
	fs.stop()

	var walls, tracedWalls, untracedWalls []float64
	points, cached, complete := 0, 0, 0
	identical, tracedChecks := true, 0
	for _, tenant := range recs {
		for _, cr := range tenant {
			m.attempted += cr.points
			points += cr.points
			cached += cr.cached
			if cr.err == nil && cr.sampled {
				same := sameReport(o, cr.report, referenceReport(cr.spec))
				if !same {
					cr.failedPts = cr.points
				}
				if cr.traced {
					tracedChecks++
					identical = identical && same
				}
			}
			m.failed += cr.failedPts
			if cr.err != nil {
				continue
			}
			complete += cr.complete
			walls = append(walls, cr.wall.Seconds())
			if cr.traced {
				tracedWalls = append(tracedWalls, cr.wall.Seconds())
			} else {
				untracedWalls = append(untracedWalls, cr.wall.Seconds())
			}
		}
	}
	pr := fs.probe
	pr.mu.Lock()
	defer pr.mu.Unlock()
	m.e2e["sim_cycles_per_s"] = float64(pr.cycles) / elapsed.Seconds()
	m.e2e["sim_s_p50"] = quantile(pr.exec, 0.5)
	m.e2e["sim_s_p90"] = quantile(pr.exec, 0.9)
	m.e2e["points_per_hour"] = float64(complete) / elapsed.Seconds() * 3600
	m.e2e["campaign_s_p50"] = quantile(walls, 0.5)
	m.e2e["campaign_s_p90"] = quantile(walls, 0.9)
	m.e2e["setup_s"] = setupS
	m.e2e["peak_rss_mb"] = peakRSS
	m.e2e["allocs_per_kcycle"] = ratio(mallocs*1000, pr.cycles)
	m.info["campaigns"] = len(walls)
	m.info["points"] = points
	m.info["executed_points"] = len(pr.exec)
	m.info["cache_served_share"] = ratio(uint64(cached), uint64(points))
	m.info["fleet"] = fmt.Sprintf("%d workers, %d closed-loop tenants, shapes %v, %d IS keys, %d setups", fleetWorkers, len(tenants), fleetShapes, o.fleetKeys, nSetup)
	if !o.trace {
		return m, nil
	}

	l := m.layer
	l["core.build_ms"] = quantile(builds, 0.5)
	l["kernel.boot_ms"] = quantile(boots, 0.5)
	l["fleetsrv.submit_ms_p50"] = quantile(pr.lat["submit"], 0.5)
	l["fleetsrv.lease_ms_p50"] = quantile(pr.lat["lease"], 0.5)
	l["fleetsrv.lease_ms_p90"] = quantile(pr.lat["lease"], 0.9)
	l["fleetsrv.result_ms_p50"] = quantile(pr.lat["result"], 0.5)
	l["fleetsrv.result_ms_p90"] = quantile(pr.lat["result"], 0.9)
	l["fleetsrv.empty_lease_ratio"] = ratio(uint64(pr.emptyLeases), uint64(pr.leases))
	l["fleetsrv.queue_wait_ms_p50"] = quantile(pr.queueWait, 0.5)
	l["campaign.exec_s_p50"] = quantile(pr.tracedExec, 0.5)
	l["campaign.cache_hit_ratio"] = ratio(uint64(cached), uint64(points))
	pr.model.report(l)
	l["trace.overhead_frac"] = overhead(tracedWalls, untracedWalls)
	lt := rec.selfTimes()
	l["trace.accounted_frac"] = accounted(lt["campaign"], untracedWalls)
	if identical && tracedChecks > 0 {
		l["trace.counters_identical"] = 1
	}
	m.info["traced_campaigns"] = len(tracedWalls)
	return m, finishTrace(o, rec, lt)
}

// referenceReport runs a spec through the in-process campaign.Runner with no
// cache; nil if it fails, which the comparison then counts as a failure.
func referenceReport(spec campaign.Spec) []byte {
	cr, err := (&campaign.Runner{Workers: 1}).Run(context.Background(), spec)
	var out []byte
	if err == nil {
		out, err = cr.Aggregate().JSON()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reference run of %s: %v\n", spec.Name, err)
	}
	return out
}
