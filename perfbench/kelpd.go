package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kelp/internal/httpd"
)

// kelpdPlan fixes the kelpd phase's inputs.
type kelpdPlan struct {
	sessions   int     // created in setup, each with CNN1 + Stitch admitted
	faultEvery int     // one session in each block of this many popularity ranks carries a fault spec
	advanceMS  float64 // simulated ms per advance
	rate       float64 // fixed-rate phase, requests/s
	fixedN     int     // requests in the fixed-rate phase
	probeReads int     // reads sent one at a time to count allocations per read
	ladderBase float64 // lowest rate of the ladder, requests/s
	probeSec   float64 // length of one ladder probe, seconds
	ladderStep float64 // ratio between neighbouring ladder rates
	ladderLen  int     // ladder rates: ladderBase * ladderStep^k, k in [0, ladderLen)
	limitMS    float64 // advance p50 and backlog-growth limit a ladder rate must meet
	setups     int     // set-ups of a server without persistence timed for setup_s
	recoveries int     // recoveries of the persisted directory timed
	snapEvery  int     // httpd.Config.SnapshotEvery (0 = server default)
	conns      int     // client connections (open-loop concurrency)
	verify     int     // sessions replayed serially on a fresh server
}

// Request classes, used as span and counter names.
const (
	clsCreate  = "create"
	clsAdmit   = "admit"
	clsAdvance = "advance"
	clsMetrics = "metrics"
	clsEvents  = "events"
	clsHealthz = "healthz"
	// clsCheck is untimed correctness traffic (digests, /healthz reads).
	clsCheck = "check"
)

var classes = []string{clsCreate, clsAdmit, clsAdvance, clsMetrics, clsEvents, clsHealthz}

// Headers carrying a traced request's client span to the handler wrapper.
const (
	hdrSpan  = "X-Perfbench-Span"
	hdrReq   = "X-Perfbench-Req"
	hdrClass = "X-Perfbench-Class"
)

// op is one scheduled request.
type op struct {
	due   time.Duration // offset from the phase start
	class string
	sess  int
}

// outcome is one request's result, timed from its due time.
type outcome struct {
	class string
	late  time.Duration // sent − due
	lat   time.Duration // response read − due
	ok    bool
}

// phaseStats reduces one open-loop phase.
type phaseStats struct {
	name                string
	sent, ok, failed    int
	advance, read, late summary
	start               time.Time
	elapsed             time.Duration
	lateGrowth          float64 // median lateness, last third minus first third (ms)
	rate                float64
	allocs, allocBytes  uint64
}

// kelpd drives one in-process kelpd over loopback HTTP.
type kelpd struct {
	plan   kelpdPlan
	seed   int64
	dir    string
	tr     *tracer
	hc     *http.Client
	perm   []int  // popularity rank → session index
	faulty []bool // by session index

	srv  *httpd.Server
	hs   *http.Server
	base string
	done chan struct{}

	advances []atomic.Int64 // successful advances per session
	cursors  []atomic.Uint64
	reqIDs   atomic.Uint64

	mu          sync.Mutex
	counts      map[string]*[3]int // class → {attempted, failed, of which refused (429/503)}
	readHandler []float64          // ms inside the handler per read; see takeReadHandler
}

func newKelpd(plan kelpdPlan, seed int64, dir string, tr *tracer) *kelpd {
	rng := rand.New(rand.NewSource(seed ^ 0x6b656c7064))
	k := &kelpd{
		plan: plan, seed: seed, dir: dir, tr: tr,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     plan.conns,
				MaxIdleConnsPerHost: plan.conns,
				DisableCompression:  true,
			},
		},
		perm:     rng.Perm(plan.sessions),
		faulty:   make([]bool, plan.sessions),
		advances: make([]atomic.Int64, plan.sessions),
		cursors:  make([]atomic.Uint64, plan.sessions),
		counts:   make(map[string]*[3]int),
	}
	// Stratified fault assignment: exactly one session per block of
	// faultEvery popularity ranks, so every seed replays a similar share
	// of hot and cold traffic at recovery. The hottest session (rank 0,
	// a fifth of all traffic) is never faulted: whether it declines
	// snapshots would otherwise flip the phase's allocations and disk
	// use by a tenth from one seed to the next.
	for b := 0; b < plan.sessions; b += plan.faultEvery {
		lo := b
		if b == 0 {
			lo = 1
		}
		r := lo + rng.Intn(min(b+plan.faultEvery, plan.sessions)-lo)
		k.faulty[k.perm[r]] = true
	}
	return k
}

func sessName(i int) string { return fmt.Sprintf("s%03d", i) }

// config persists sessions under k.dir; an empty dir turns persistence off.
func (k *kelpd) config() httpd.Config {
	return httpd.Config{
		MaxSessions:   k.plan.sessions + 1,
		SessionTTL:    -1,
		PersistDir:    k.dir,
		SnapshotEvery: k.plan.snapEvery,
	}
}

// start builds a server with httpd.New over the persist directory and
// serves its Handler on a loopback listener. It returns the New call's
// wall time, which is the recovery time when the directory holds state.
func (k *kelpd) start() (time.Duration, error) {
	t0 := time.Now()
	srv, err := httpd.New(k.config())
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return 0, err
	}
	k.srv, k.hs = srv, &http.Server{Handler: k.timedHandler(srv.Handler(), k.tr)}
	k.base = "http://" + ln.Addr().String()
	k.done = make(chan struct{})
	go func() {
		defer close(k.done)
		_ = k.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return took, nil
}

// stop closes the listener, waits for Serve to return and closes the
// server (sessions keep their persisted files).
func (k *kelpd) stop() {
	if k.hs == nil {
		return
	}
	k.hs.Close()
	<-k.done
	k.srv.Close()
	k.hc.CloseIdleConnections()
	k.hs, k.srv = nil, nil
}

// timedHandler wraps the server's Handler. It times every read inside
// the handler — middleware, routing, the handler and JSON encoding, but
// not the network or the client — and, when tr is set, records a handler
// span for every request that carries a client span header, parented to
// that client span.
func (k *kelpd) timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := r.Header.Get(hdrClass)
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if class == clsMetrics || class == clsEvents || class == clsHealthz {
			k.mu.Lock()
			k.readHandler = append(k.readHandler, ms(end.Sub(start)))
			k.mu.Unlock()
		}
		if parent, err := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64); tr != nil && err == nil {
			req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
			tr.record(tr.newID(), parent, req, "httpd."+class+".handler", start, end)
		}
	})
}

// takeReadHandler returns the read handler times (ms) recorded since the
// last call and forgets them.
func (k *kelpd) takeReadHandler() []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	xs := k.readHandler
	k.readHandler = nil
	return xs
}

// do sends one request and reads the whole response, counting it under
// its class. ok reports the expected status and, when must is set, that
// the body contains it.
func (k *kelpd) do(class, method, path, body string, want int, must string) (data []byte, ok bool) {
	req, err := http.NewRequest(method, k.base+path, strings.NewReader(body))
	if err != nil {
		return nil, k.count(class, false, false)
	}
	req.Header.Set(hdrClass, class)
	var id, rid uint64
	if k.tr != nil {
		id, rid = k.tr.newID(), k.reqIDs.Add(1)
		req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		req.Header.Set(hdrReq, strconv.FormatUint(rid, 10))
	}
	start := time.Now()
	resp, err := k.hc.Do(req)
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	k.tr.record(id, 0, rid, "httpd."+class, start, time.Now())
	ok = err == nil && resp.StatusCode == want && (must == "" || bytes.Contains(data, []byte(must)))
	refused := err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable)
	return data, k.count(class, ok, refused)
}

func (k *kelpd) count(class string, ok, refused bool) bool {
	k.mu.Lock()
	c := k.counts[class]
	if c == nil {
		c = new([3]int)
		k.counts[class] = c
	}
	c[0]++
	if !ok {
		c[1]++
		if refused {
			c[2]++
		}
	}
	k.mu.Unlock()
	return ok
}

// totals returns the requests attempted over every class, those that
// failed, and how many of the failures were refusals (429/503).
func (k *kelpd) totals() (attempted, failed, refused int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.counts {
		attempted += c[0]
		failed += c[1]
		refused += c[2]
	}
	return
}

// createScript is the request script that creates and admits session i.
func (k *kelpd) createScript(i int) [3][3]string {
	spec := fmt.Sprintf(`{"name":%q,"seed":%d}`, sessName(i), k.seed*1000+int64(i))
	if k.faulty[i] {
		spec = fmt.Sprintf(`{"name":%q,"seed":%d,"faults":"seed=%d,drop=0.2,actstick=0.1"}`,
			sessName(i), k.seed*1000+int64(i), i+1)
	}
	return [3][3]string{
		{clsCreate, "/sessions", spec},
		{clsAdmit, "/sessions/" + sessName(i) + "/tasks", `{"ml":"CNN1","cores":2}`},
		{clsAdmit, "/sessions/" + sessName(i) + "/tasks", `{"kind":"Stitch"}`},
	}
}

// setup boots an empty server and creates every session over plan.conns
// connections. It returns the wall time from before httpd.New until the
// last admit answered.
func (k *kelpd) setup() (time.Duration, error) {
	t0 := time.Now()
	if _, err := k.start(); err != nil {
		return 0, err
	}
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < k.plan.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < k.plan.sessions; i += k.plan.conns {
				for _, st := range k.createScript(i) {
					if _, ok := k.do(st[0], "POST", st[1], st[2], http.StatusCreated, ""); !ok {
						bad.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return 0, fmt.Errorf("kelpd setup: %d create/admit requests failed", n)
	}
	return time.Since(t0), nil
}

// schedule draws n requests with Poisson arrivals at rate req/s: one
// advance per three requests, the other two reads (metrics, events or
// healthz), sessions by Zipf popularity.
func (k *kelpd) schedule(rng *rand.Rand, n int, rate float64) []op {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(k.plan.sessions-1))
	reads := []string{clsMetrics, clsEvents, clsHealthz}
	ops := make([]op, n)
	var t float64
	advAt := 0
	for i := range ops {
		t += rng.ExpFloat64() / rate
		if i%3 == 0 {
			advAt = i + rng.Intn(3)
		}
		cls := reads[rng.Intn(len(reads))]
		if i == advAt {
			cls = clsAdvance
		}
		ops[i] = op{due: time.Duration(t * float64(time.Second)), class: cls, sess: k.perm[zipf.Uint64()]}
	}
	return ops
}

// send issues one scheduled request.
func (k *kelpd) send(o op) bool {
	name := sessName(o.sess)
	switch o.class {
	case clsAdvance:
		body := fmt.Sprintf(`{"ms":%g,"wait":true}`, k.plan.advanceMS)
		_, ok := k.do(o.class, "POST", "/sessions/"+name+"/advance", body, http.StatusOK, `"state":"done"`)
		if ok {
			k.advances[o.sess].Add(1)
		}
		return ok
	case clsEvents:
		path := fmt.Sprintf("/sessions/%s/events?since=%d", name, k.cursors[o.sess].Load())
		data, ok := k.do(o.class, "GET", path, "", http.StatusOK, "")
		if ok {
			var page struct {
				NextSince uint64 `json:"next_since"`
			}
			if json.Unmarshal(data, &page) != nil {
				return false
			}
			for cur := k.cursors[o.sess].Load(); page.NextSince > cur; cur = k.cursors[o.sess].Load() {
				if k.cursors[o.sess].CompareAndSwap(cur, page.NextSince) {
					break
				}
			}
		}
		return ok
	case clsMetrics:
		_, ok := k.do(o.class, "GET", "/sessions/"+name+"/metrics", "", http.StatusOK, "")
		return ok
	default:
		_, ok := k.do(o.class, "GET", "/healthz", "", http.StatusOK, "")
		return ok
	}
}

// openLoop sends ops on their schedule over plan.conns connections. A
// request is never sent before it is due; when every connection is busy
// it goes out late, and its latency still counts from the due time.
func (k *kelpd) openLoop(name string, ops []op) *phaseStats {
	outs := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	a0 := memStats()
	start := time.Now().Add(2 * time.Millisecond)
	for w := 0; w < k.plan.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				sleepUntil(due)
				sent := time.Now()
				ok := k.send(ops[i])
				outs[i] = outcome{class: ops[i].class, late: lateness(due, sent), lat: time.Since(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	a1 := memStats()
	ps := &phaseStats{name: name, sent: len(ops), start: start, elapsed: time.Since(start),
		allocs: a1.Mallocs - a0.Mallocs, allocBytes: a1.TotalAlloc - a0.TotalAlloc}
	ps.rate = float64(len(ops)) / ops[len(ops)-1].due.Seconds()
	var late, advances, reads []float64
	for _, o := range outs {
		late = append(late, ms(o.late))
		if !o.ok {
			ps.failed++
			continue
		}
		ps.ok++
		if o.class == clsAdvance {
			advances = append(advances, ms(o.lat))
		} else {
			reads = append(reads, ms(o.lat))
		}
	}
	ps.advance, ps.read, ps.late = summarize(advances), summarize(reads), summarize(late)
	third := len(late) / 3
	ps.lateGrowth = median(late[len(late)-third:]) - median(late[:third])
	return ps
}

// ladderRate is the k-th rate of the ladder.
func (k *kelpd) ladderRate(i int) float64 {
	return k.plan.ladderBase * math.Pow(k.plan.ladderStep, float64(i))
}

// passes reports whether a probe kept up: every request succeeded, the
// median advance latency (from due time) met the limit, and the backlog
// did not grow — the generator ran no later at the end than at the start,
// give or take the limit.
func (k *kelpd) passes(ps *phaseStats) bool {
	return ps.failed == 0 && ps.advance.N > 0 && ps.advance.P50 <= k.plan.limitMS && ps.lateGrowth <= k.plan.limitMS
}

// ladder finds the highest ladder rate that passes by bisection over the
// ladder (pass/fail is monotone in the rate up to noise). A failing rate
// is probed once more, so one stall of the machine does not decide it.
// It returns 0 if even the lowest rate fails.
func (k *kelpd) ladder(rng *rand.Rand) (float64, []*phaseStats) {
	lo, hi := -1, k.plan.ladderLen // lo passes (or -1), hi fails (or past the end)
	var probes []*phaseStats
	probe := func(i int) bool {
		r := k.ladderRate(i)
		ps := k.openLoop(fmt.Sprintf("ladder@%.0f", r), k.schedule(rng, int(r*k.plan.probeSec), r))
		probes = append(probes, ps)
		return k.passes(ps)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) || probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, probes
	}
	return k.ladderRate(lo), probes
}

// readAllocs sends plan.probeReads reads of the fixed-rate mix one at a
// time and returns the heap allocations per read, client and server
// together. Sent serially, the count holds only the request path:
// middleware, handler and JSON encoding, plus the client's own share.
func (k *kelpd) readAllocs(rng *rand.Rand) (float64, error) {
	var reads []op // one op in three is an advance, so 2n ops hold n reads
	for _, o := range k.schedule(rng, 2*k.plan.probeReads, k.plan.rate) {
		if o.class != clsAdvance && len(reads) < k.plan.probeReads {
			reads = append(reads, o)
		}
	}
	a0 := memStats().Mallocs
	for _, o := range reads {
		if !k.send(o) {
			return 0, fmt.Errorf("alloc probe: %s of %s failed", o.class, sessName(o.sess))
		}
	}
	return float64(memStats().Mallocs-a0) / float64(len(reads)), nil
}

// sessionBodies fetches a session's /events and /metrics bodies.
func (k *kelpd) sessionBodies(i int) (events, metrics []byte, err error) {
	name := sessName(i)
	events, ok := k.do(clsCheck, "GET", "/sessions/"+name+"/events", "", http.StatusOK, "")
	if !ok {
		return nil, nil, fmt.Errorf("GET %s/events failed", name)
	}
	metrics, ok = k.do(clsCheck, "GET", "/sessions/"+name+"/metrics", "", http.StatusOK, "")
	if !ok {
		return nil, nil, fmt.Errorf("GET %s/metrics failed", name)
	}
	return events, metrics, nil
}

// digests hashes every session's /events and /metrics.
func (k *kelpd) digests() ([][32]byte, error) {
	out := make([][32]byte, k.plan.sessions)
	for i := range out {
		ev, me, err := k.sessionBodies(i)
		if err != nil {
			return nil, err
		}
		out[i] = sha256.Sum256(append(ev, me...))
	}
	return out, nil
}

// verifyReplay replays sampled sessions serially on a fresh no-persist
// server (driven through its Handler directly) and byte-compares their
// /events and /metrics with the live server's. The hottest session and a
// faulted one are always sampled.
func (k *kelpd) verifyReplay(rng *rand.Rand) error {
	ref, err := httpd.New(httpd.Config{MaxSessions: k.plan.sessions + 1, SessionTTL: -1})
	if err != nil {
		return err
	}
	defer ref.Close()
	h := ref.Handler()
	call := func(method, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	sample := []int{k.perm[0]}
	for i, f := range k.faulty {
		if f {
			sample = append(sample, i)
			break
		}
	}
	for len(sample) < k.plan.verify {
		sample = append(sample, rng.Intn(k.plan.sessions))
	}
	adv := fmt.Sprintf(`{"ms":%g,"wait":true}`, k.plan.advanceMS)
	for _, i := range sample {
		name := sessName(i)
		if code, _ := call("GET", "/sessions/"+name, ""); code == http.StatusOK {
			continue // sampled twice
		}
		for _, st := range k.createScript(i) {
			if code, body := call("POST", st[1], st[2]); code != http.StatusCreated {
				return fmt.Errorf("replay %s %s = %d %s", name, st[1], code, body)
			}
		}
		for a := k.advances[i].Load(); a > 0; a-- {
			if code, body := call("POST", "/sessions/"+name+"/advance", adv); code != http.StatusOK {
				return fmt.Errorf("replay %s advance = %d %s", name, code, body)
			}
		}
		ev, me, err := k.sessionBodies(i)
		if err != nil {
			return err
		}
		if _, got := call("GET", "/sessions/"+name+"/events", ""); !bytes.Equal(got, ev) {
			return fmt.Errorf("session %s /events differs from its serial replay", name)
		}
		if _, got := call("GET", "/sessions/"+name+"/metrics", ""); !bytes.Equal(got, me) {
			return fmt.Errorf("session %s /metrics differs from its serial replay", name)
		}
	}
	return nil
}

// health reads /healthz.
func (k *kelpd) health() (map[string]any, error) {
	data, ok := k.do(clsCheck, "GET", "/healthz", "", http.StatusOK, "")
	if !ok {
		return nil, fmt.Errorf("GET /healthz failed")
	}
	var h map[string]any
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, err
	}
	return h, nil
}

// persistNum reads a number from /healthz's persist block.
func persistNum(h map[string]any, key string) float64 {
	p, _ := h["persist"].(map[string]any)
	v, _ := p[key].(float64)
	return v
}

// diskUsage sums the persist directory's WAL and snapshot bytes.
func diskUsage(dir string) (wal, snap int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".wal":
			wal += info.Size()
		case ".snap":
			snap += info.Size()
		}
		return nil
	})
	return wal, snap, err
}

// sleepUntil blocks until t. It calls nanosleep directly: the runtime's
// timers wake an otherwise idle process up to a millisecond late, which
// would count as generator lateness.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; lateness is measured
	}
}
