package main

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"templar/internal/workload"
	"templar/pkg/api"
	"templar/pkg/client"
)

// conns is the number of client connections and load goroutines: no more
// than the cores the benchmark is sized for.
const conns = 2

// op indexes the per-operation latency series.
type op int

const (
	opMap op = iota
	opInfer
	opTranslate
	opAppend
	numOps
)

var opNames = [numOps]string{"map", "infer", "translate", "append"}

func opOf(r *workload.Request) op {
	switch r.Op {
	case workload.OpMapKeywords:
		return opMap
	case workload.OpInferJoins:
		return opInfer
	case workload.OpTranslate:
		return opTranslate
	default:
		return opAppend
	}
}

// newClient returns an SDK client with retries off over at most conns
// connections.
func newClient(base string) (*client.Client, error) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return client.New(base, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))
}

// ack is one acknowledged log append.
type ack struct {
	seq int64
	req *api.LogAppendRequest
}

// execute sends one request. A translate batch fails if any item fails.
func execute(ctx context.Context, c *client.Client, r *workload.Request) (int64, error) {
	switch r.Op {
	case workload.OpMapKeywords:
		_, err := c.MapKeywords(ctx, r.Dataset, *r.MapKeywords)
		return 0, err
	case workload.OpInferJoins:
		_, err := c.InferJoins(ctx, r.Dataset, *r.InferJoins)
		return 0, err
	case workload.OpTranslate:
		resp, err := c.Translate(ctx, r.Dataset, *r.Translate)
		if err != nil {
			return 0, err
		}
		for _, res := range resp.Results {
			if res.Error != nil {
				return 0, res.Error
			}
		}
		return 0, nil
	default:
		resp, err := c.AppendLog(ctx, r.Dataset, *r.LogAppend)
		if err != nil {
			return 0, err
		}
		return resp.WALSeq, nil
	}
}

// sample is one successful request: when it completed, as an offset from
// the start of the phase, and its latency.
type sample struct {
	at, lat time.Duration
}

// runStats is what one measured phase observed.
type runStats struct {
	// lat holds every successful request per operation.
	lat       [numOps][]sample
	attempted int
	failed    int
	// firstErr is the first failure, for the log.
	firstErr error
	elapsed  time.Duration
	// dur is the scheduled length of the phase.
	dur time.Duration
	// windowRates are completed requests per second in consecutive
	// one-second windows.
	windowRates []float64
	// gen is the generator's own delay per request: the gap from a
	// response to the next send on the same connection.
	gen []time.Duration
	// acks are the acknowledged appends, in completion order.
	acks []ack
	// sent are the requests sent, for working-set counts.
	sent []*workload.Request
	// before and after bracket the phase's runtime counters.
	before, after runtimeSample
}

func (s *runStats) completed() int { return s.attempted - s.failed }

// merge folds one worker's observations into s.
func (s *runStats) merge(w *runStats) {
	for i := range s.lat {
		s.lat[i] = append(s.lat[i], w.lat[i]...)
	}
	s.attempted += w.attempted
	s.failed += w.failed
	if s.firstErr == nil {
		s.firstErr = w.firstErr
	}
	s.gen = append(s.gen, w.gen...)
	s.acks = append(s.acks, w.acks...)
}

func (s *runStats) record(o op, at, d time.Duration, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.lat[o] = append(s.lat[o], sample{at: at, lat: d})
}

// latencies returns the latencies of operation o.
func (s *runStats) latencies(o op) []time.Duration {
	out := make([]time.Duration, len(s.lat[o]))
	for i, x := range s.lat[o] {
		out[i] = x.lat
	}
	return out
}

// closedLoop replays reqs on n connections, each sending its next request
// as soon as the previous one completes, for dur. Latency is timed from
// the send. onAck, when set, runs after each acknowledged log append.
func closedLoop(c *client.Client, reqs []workload.Request, n int, dur time.Duration, onAck func(), tr *tracer) *runStats {
	ctx := context.Background()
	total := &runStats{dur: dur}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	total.before = readRuntime()
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &runStats{}
			var last time.Time
			for {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				if !last.IsZero() {
					st.gen = append(st.gen, now.Sub(last))
				}
				i := next.Add(1) - 1
				r := &reqs[int(i)%len(reqs)]
				o := opOf(r)
				sp := tr.begin("client."+opNames[o], -1, uint64(i)+1)
				t0 := time.Now()
				seq, err := execute(ctx, c, r)
				last = time.Now()
				tr.end(sp)
				st.record(o, last.Sub(start), last.Sub(t0), err)
				if err == nil && o == opAppend {
					st.acks = append(st.acks, ack{seq: seq, req: r.LogAppend})
					if onAck != nil {
						onAck()
					}
				}
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.after = readRuntime()
	sent := int(next.Load())
	for i := 0; i < sent && i < len(reqs); i++ {
		total.sent = append(total.sent, &reqs[i])
	}
	total.windowRates = make([]float64, int(dur/time.Second))
	for _, l := range total.lat {
		for _, x := range l {
			if w := int(x.at / time.Second); w < len(total.windowRates) {
				total.windowRates[w]++
			}
		}
	}
	return total
}

// workingSet counts the distinct keyword sets and relation bags among the
// reads sent.
func workingSet(sent []*workload.Request) (keywords, bags int) {
	kw := make(map[string]bool)
	bg := make(map[string]bool)
	addKW := func(in api.KeywordsInput) {
		var b strings.Builder
		b.WriteString(in.Spec)
		for _, k := range in.Keywords {
			b.WriteString(k.Text + "\x00" + k.Context + "\x00" + k.Op + "\x00" + k.Agg + "\x01")
		}
		kw[b.String()] = true
	}
	for _, r := range sent {
		switch r.Op {
		case workload.OpMapKeywords:
			addKW(r.MapKeywords.KeywordsInput)
		case workload.OpTranslate:
			for _, q := range r.Translate.Queries {
				addKW(q)
			}
		case workload.OpInferJoins:
			b := append([]string(nil), r.InferJoins.Relations...)
			sort.Strings(b)
			bg[strings.Join(b, ",")] = true
		}
	}
	return len(kw), len(bg)
}
