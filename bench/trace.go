package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A tally accumulates one kind of call made far too often to give
// each its own span (a conn Read, a per-chunk Append): how many, how
// long in total, how many bytes.
type tally struct{ calls, ns, bytes atomic.Int64 }

type tallySnap struct{ calls, ns, bytes int64 }

func (t *tally) snap() tallySnap {
	return tallySnap{t.calls.Load(), t.ns.Load(), t.bytes.Load()}
}

func (a tallySnap) sub(b tallySnap) tallySnap {
	return tallySnap{a.calls - b.calls, a.ns - b.ns, a.bytes - b.bytes}
}

func (a tallySnap) add(b tallySnap) tallySnap {
	return tallySnap{a.calls + b.calls, a.ns + b.ns, a.bytes + b.bytes}
}

// The layer boundaries the harness wraps. The first four are the two
// ends of the loopback connection, the rest the shardstore.Backing
// surface of the persist layer.
const (
	tSrvRead = iota // server blocked reading from the client
	tSrvWrite
	tCliRead // client blocked reading from the server
	tCliWrite
	tAppend
	tRefDelta
	tShardCommit
	tRead
	tRelocate
	// Calls at most once per batch: each also gets its own span.
	tCommitRecipe
	tDeleteRecipe
	tBarrier
	tSync
	tCheckpoint
	numTallies
)

var tallyNames = [numTallies]string{
	"ingest.server_read_wait", "ingest.server_write",
	"ingest.client_ack_wait", "ingest.client_write",
	"persist.append", "persist.refdelta", "persist.shard_commit",
	"persist.read", "persist.relocate",
	"persist.commit_recipe", "persist.delete_recipe", "persist.barrier",
	"persist.sync", "persist.checkpoint",
}

func clientSide(id int) bool { return id == tCliRead || id == tCliWrite }
func ownSpan(id int) bool    { return id >= tCommitRecipe }

// meter is the state the connection and backing wrappers write into.
// Untraced runs use it only to count the client connection's bytes
// (two atomic adds per conn call); a traced run also times every
// wrapped call while on is set.
type meter struct {
	base time.Time
	on   atomic.Bool
	// opStart is when the current operation began (ns since base). A
	// server read that was already waiting for the next request is
	// charged to that request only from this instant on.
	opStart atomic.Int64
	// rounds counts client write→read turnarounds: protocol round trips.
	rounds atomic.Int64
	t      [numTallies]tally
}

func newMeter() *meter { return &meter{base: time.Now()} }

func (m *meter) now() int64 { return int64(time.Since(m.base)) }

// start opens one wrapped call: the time to hand to done, or -1 while
// timing is off.
func (m *meter) start() int64 {
	if !m.on.Load() {
		return -1
	}
	return m.now()
}

// done closes a call begun with start: calls and bytes always count,
// time only when the call was timed. It returns the end time, -1 when
// untimed.
func (m *meter) done(id int, t0, bytes int64) int64 {
	t := &m.t[id]
	t.calls.Add(1)
	t.bytes.Add(bytes)
	if t0 < 0 {
		return -1
	}
	t1 := m.now()
	t.ns.Add(max(0, t1-t0))
	return t1
}

func (m *meter) snapAll() (s [numTallies]tallySnap) {
	for i := range m.t {
		s[i] = m.t[i].snap()
	}
	return s
}

// span is one record of the trace file. Spans of one operation share
// Op; Parent is 0 for a root. An aggregate span (Agg) folds Calls
// calls into one record whose duration is their summed time, laid from
// the operation's start; every other span is one call with its real
// interval.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes"`
	Calls   int64  `json:"calls"`
	Agg     bool   `json:"agg,omitempty"`
}

// kindTotals sums everything recorded for one kind of operation
// (bulk ingest, restore, lone commit, ...): the per-layer metrics are
// ratios of these.
type kindTotals struct {
	ops      int64
	bytes    int64
	chunks   int64
	cpuNs    int64
	allocB   int64
	allocN   int64
	selfSrv  int64 // server root self time
	selfCli  int64
	t        [numTallies]tallySnap
	maxSelfE float64 // worst |Σ self − wall| / wall over the kind's ops
}

// recorder keeps the traced run's spans in memory until the run ends.
type recorder struct {
	m  *meter
	mu sync.Mutex
	// cur is the root that per-batch spans recorded right now belong
	// to: the open operation's server-side root, 0 between operations
	// and for the whole pair phase (two operations overlap there).
	cur    atomic.Int64
	curOp  atomic.Int64
	spans  []span
	nextID int
	nextOp int
	totals map[string]*kindTotals
}

func newRecorder(m *meter) *recorder {
	return &recorder{m: m, totals: make(map[string]*kindTotals)}
}

func (r *recorder) newID() int {
	r.nextID++
	return r.nextID
}

// call records one per-batch call as its own span under the open
// operation. Safe from any goroutine.
func (r *recorder) call(id int, start, end, bytes int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: r.newID(), Parent: int(r.cur.Load()), Op: int(r.curOp.Load()),
		Name: tallyNames[id], StartNs: start, EndNs: end, Bytes: bytes, Calls: 1,
	})
	r.mu.Unlock()
}

// opTrace is one open operation.
type opTrace struct {
	kind, name string
	local      bool // called on the store directly, no client/server pair
	concurrent bool // several sessions at once: totals only
	op, root   int  // root: the server-side (or only) root span id
	start      int64
	snap       [numTallies]tallySnap
	cpu        int64
	alloc      [2]uint64
}

// begin opens an operation of the given kind; a nil recorder, or one
// whose meter is off, returns nil and end(nil, …) is a no-op.
func (r *recorder) begin(kind, name string, local, concurrent bool) *opTrace {
	if r == nil || !r.m.on.Load() {
		return nil
	}
	o := &opTrace{kind: kind, name: name, local: local, concurrent: concurrent}
	r.mu.Lock()
	r.nextOp++
	o.op, o.root = r.nextOp, r.newID()
	r.mu.Unlock()
	o.cpu, o.alloc = cpuNanos(), allocCounters()
	o.snap = r.m.snapAll()
	o.start = r.m.now()
	r.m.opStart.Store(o.start)
	if !concurrent {
		r.cur.Store(int64(o.root))
		r.curOp.Store(int64(o.op))
	}
	return o
}

// end closes the operation: the tallies' movement since begin becomes
// the aggregate children, and the roots are written.
func (r *recorder) end(o *opTrace, bytes, chunks int64) {
	if o == nil {
		return
	}
	end := r.m.now()
	r.cur.Store(0)
	r.curOp.Store(0)
	now := r.m.snapAll()
	cpu, alloc := cpuNanos(), allocCounters()

	r.mu.Lock()
	defer r.mu.Unlock()
	prefix, cliRoot := "server:", 0
	if o.local {
		prefix = "store:"
	} else {
		cliRoot = r.newID()
		r.spans = append(r.spans, span{ID: cliRoot, Op: o.op, Name: "client:" + o.name,
			StartNs: o.start, EndNs: end, Bytes: bytes, Calls: 1})
	}
	r.spans = append(r.spans, span{ID: o.root, Op: o.op, Name: prefix + o.name,
		StartNs: o.start, EndNs: end, Bytes: bytes, Calls: 1})
	kt := r.totals[o.kind]
	if kt == nil {
		kt = &kindTotals{}
		r.totals[o.kind] = kt
	}
	for id := 0; id < numTallies; id++ {
		d := now[id].sub(o.snap[id])
		kt.t[id] = kt.t[id].add(d)
		if d.calls == 0 || ownSpan(id) {
			continue
		}
		parent := o.root
		if clientSide(id) {
			parent = cliRoot
		}
		r.spans = append(r.spans, span{ID: r.newID(), Parent: parent, Op: o.op, Name: tallyNames[id],
			StartNs: o.start, EndNs: o.start + d.ns, Bytes: d.bytes, Calls: d.calls, Agg: true})
	}
	kt.ops++
	kt.bytes += bytes
	kt.chunks += chunks
	kt.cpuNs += cpu - o.cpu
	kt.allocB += int64(alloc[0] - o.alloc[0])
	kt.allocN += int64(alloc[1] - o.alloc[1])
	if o.concurrent {
		return
	}
	// The operation's spans are the tail of r.spans plus any per-batch
	// spans recorded while it ran; they all carry its op id.
	var mine []span
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].StartNs >= o.start; i-- {
		if r.spans[i].Op == o.op {
			mine = append(mine, r.spans[i])
		}
	}
	self := selfTimes(mine)
	kt.selfSrv += self[o.root]
	kt.selfCli += self[cliRoot]
	for _, root := range []int{o.root, cliRoot} {
		if root == 0 {
			continue
		}
		if e := subtreeSelfError(mine, self, root); e > kt.maxSelfE {
			kt.maxSelfE = e
		}
	}
}

// selfTimes gives each span its duration minus what its children
// cover: aggregate children cover their summed time, the others the
// union of their intervals clipped to the parent. Never negative.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			if k.Agg {
				covered += k.EndNs - k.StartNs
				continue
			}
			a, b := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		edge := int64(0)
		for i, x := range iv {
			if i == 0 || x[0] > edge {
				covered += x[1] - x[0]
				edge = x[1]
			} else if x[1] > edge {
				covered += x[1] - edge
				edge = x[1]
			}
		}
		self[s.ID] = max(0, s.EndNs-s.StartNs-covered)
	}
	return self
}

// subtreeSelfError is |Σ self over root's subtree − root's duration|
// as a share of the duration: 0 when the children fit inside their
// parents, positive when the wrappers attributed more time to an
// operation than it took.
func subtreeSelfError(spans []span, self map[int]int64, root int) float64 {
	in := map[int]bool{root: true}
	var wall, sum int64
	// Parents precede nothing in particular: sweep until no span joins.
	for grew := true; grew; {
		grew = false
		for _, s := range spans {
			if !in[s.ID] && in[s.Parent] && s.Parent != 0 {
				in[s.ID] = true
				grew = true
			}
		}
	}
	for _, s := range spans {
		if !in[s.ID] {
			continue
		}
		sum += self[s.ID]
		if s.ID == root {
			wall = s.EndNs - s.StartNs
		}
	}
	if wall <= 0 {
		return 0
	}
	d := float64(sum-wall) / float64(wall)
	if d < 0 {
		d = -d
	}
	return d
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].ID < r.spans[j].ID })
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// allocCounters reads cumulative heap allocation (bytes, objects)
// without stopping the world.
func allocCounters() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}
