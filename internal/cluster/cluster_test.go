package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pimtree"
	"pimtree/internal/server"
)

// testW keeps the conformance runs fast while producing real match volume
// and real eviction churn (windows turn over many times per run).
const testW = 256

func countArrivals(n int, seed int64) []pimtree.Arrival {
	arr := pimtree.Interleave(seed, pimtree.UniformSource(seed+1), pimtree.UniformSource(seed+2), 0.5, n)
	// The workload sources draw keys from [0, 2^31) while the cluster
	// partitions the full uint32 domain equal-width, which would leave the
	// upper half of every topology idle. Double the keys so the stream covers
	// the whole domain and every node takes real inserts.
	for i := range arr {
		arr[i].Key <<= 1
	}
	return arr
}

func timedArrivals(n int, seed int64, slack uint64) []pimtree.Arrival {
	base := countArrivals(n, seed)
	timed := pimtree.ShuffleWithinSlack(seed+9, pimtree.TimestampArrivals(seed+8, base, 8), slack)
	out := make([]pimtree.Arrival, len(timed))
	for i, a := range timed {
		out[i] = pimtree.Arrival{Stream: a.Stream, Key: a.Key, TS: a.TS}
	}
	return out
}

// startNode runs a real serve-node process boundary in-process: a TCP server
// whose member sessions are shaped entirely by the router's join frame. The
// host engine behind it is irrelevant to cluster traffic — a minimal one
// keeps startup cheap.
func startNode(t *testing.T) *server.Server {
	t.Helper()
	eng, err := pimtree.Open(pimtree.Config{
		WindowR: 8, WindowS: 8, Diff: 1, Backend: pimtree.BPlusTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func startNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startNode(t).Addr().String()
	}
	return addrs
}

// runDirect replays the arrivals through a single local engine — the oracle
// every cluster topology must reproduce exactly.
func runDirect(t *testing.T, cfg pimtree.Config, arr []pimtree.Arrival) []pimtree.Match {
	t.Helper()
	e, err := pimtree.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := e.Matches() // arm before pushing, or early matches are dropped by design
	var got []pimtree.Match
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range seq {
			got = append(got, m)
		}
	}()
	if err := e.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	return got
}

// runFrontend routes the batches through a cluster frontend, invoking
// between (if set) before each batch after the first — the hook point for
// mid-stream membership changes — and returns the merged match stream.
func runFrontend(t *testing.T, cfg Config, batches [][]pimtree.Arrival, between func(fe *Frontend, next int)) []pimtree.Match {
	t.Helper()
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := fe.Matches() // arm before pushing, or early matches are dropped by design
	var got []pimtree.Match
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range seq {
			got = append(got, m)
		}
	}()
	for i, b := range batches {
		if between != nil && i > 0 {
			between(fe, i)
		}
		if err := fe.PushBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	return got
}

func multiset(ms []pimtree.Match) map[pimtree.Match]int {
	out := make(map[pimtree.Match]int, len(ms))
	for _, m := range ms {
		out[m]++
	}
	return out
}

func requireSameMultiset(t *testing.T, got, want []pimtree.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	mg, mw := multiset(got), multiset(want)
	for m, n := range mw {
		if mg[m] != n {
			t.Fatalf("match %+v: got %d copies, want %d", m, mg[m], n)
		}
	}
}

func countClusterCfg(nodes []string) Config {
	return Config{
		Nodes: nodes,
		WR:    testW, WS: testW,
		Diff:        pimtree.DiffForMatchRate(testW, 2),
		Backend:     pimtree.PIMTree,
		LocalShards: 2,
		BatchSize:   16,
	}
}

func timedClusterCfg(nodes []string) Config {
	return Config{
		Nodes: nodes,
		Timed: true,
		Span:  1024, MaxLive: 512,
		Diff:        pimtree.DiffForMatchRate(128, 2),
		Backend:     pimtree.PIMTree,
		Slack:       50,
		LatePolicy:  pimtree.LateDrop,
		LocalShards: 2,
		BatchSize:   16,
	}
}

// TestClusterConformance pins the tentpole acceptance criterion: a router
// over 1, 2, and 4 serve nodes produces a match multiset identical to one
// direct local engine on the same input, in count, timed, and self-join
// modes, and with in-flight rings small enough to stay full.
func TestClusterConformance(t *testing.T) {
	const n = 4000
	carr := countArrivals(n, 11)
	tarr := timedArrivals(n, 12, 50)
	sarr := make([]pimtree.Arrival, n)
	for i, a := range countArrivals(n, 13) {
		sarr[i] = pimtree.Arrival{Stream: pimtree.R, Key: a.Key}
	}

	countWant := runDirect(t, pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: testW, WindowS: testW,
		Diff:    pimtree.DiffForMatchRate(testW, 2),
		Backend: pimtree.PIMTree,
		Shards:  3,
	}, carr)
	timedWant := runDirect(t, pimtree.Config{
		Mode: pimtree.ModeShardedTime,
		Span: 1024, MaxLive: 512,
		Diff:   pimtree.DiffForMatchRate(128, 2),
		Shards: 3,
		Slack:  50, LatePolicy: pimtree.LateDrop,
	}, sliceCopy(tarr))
	selfWant := runDirect(t, pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: testW, Self: true,
		Diff:    pimtree.DiffForMatchRate(testW, 2),
		Backend: pimtree.PIMTree,
		Shards:  3,
	}, sarr)
	if len(countWant) == 0 || len(timedWant) == 0 || len(selfWant) == 0 {
		t.Fatal("an oracle produced no matches; the conformance check would be vacuous")
	}

	for _, nodes := range []int{1, 2, 4} {
		t.Run(modeName("count", nodes), func(t *testing.T) {
			got := runFrontend(t, countClusterCfg(startNodes(t, nodes)), [][]pimtree.Arrival{carr}, nil)
			requireSameMultiset(t, got, countWant)
		})
		t.Run(modeName("timed", nodes), func(t *testing.T) {
			got := runFrontend(t, timedClusterCfg(startNodes(t, nodes)), [][]pimtree.Arrival{sliceCopy(tarr)}, nil)
			requireSameMultiset(t, got, timedWant)
		})
		t.Run(modeName("self", nodes), func(t *testing.T) {
			cfg := countClusterCfg(startNodes(t, nodes))
			cfg.Self, cfg.WS = true, 0
			got := runFrontend(t, cfg, [][]pimtree.Arrival{sarr}, nil)
			requireSameMultiset(t, got, selfWant)
		})
		// A ring far smaller than one batch keeps the router's and every
		// member's in-flight ring full, so nearly every admission takes the
		// flush-propagate-park backpressure path.
		t.Run(modeName("tiny-ring-count", nodes), func(t *testing.T) {
			cfg := countClusterCfg(startNodes(t, nodes))
			cfg.Capacity, cfg.NodeRing = 8, 4
			got := runFrontend(t, cfg, [][]pimtree.Arrival{carr}, nil)
			requireSameMultiset(t, got, countWant)
		})
		t.Run(modeName("tiny-ring-timed", nodes), func(t *testing.T) {
			cfg := timedClusterCfg(startNodes(t, nodes))
			cfg.Capacity, cfg.NodeRing = 8, 4
			got := runFrontend(t, cfg, [][]pimtree.Arrival{sliceCopy(tarr)}, nil)
			requireSameMultiset(t, got, timedWant)
		})
	}
}

// sliceCopy guards shared oracle inputs: the timed path hands arrivals to a
// reorder buffer, so each run gets its own copy.
func sliceCopy(arr []pimtree.Arrival) []pimtree.Arrival {
	out := make([]pimtree.Arrival, len(arr))
	copy(out, arr)
	return out
}

func modeName(mode string, nodes int) string {
	return mode + "-" + string(rune('0'+nodes)) + "node"
}

// TestClusterMembershipConformance pins live membership: a node joins
// mid-stream, another leaves mid-stream, window contents are handed off both
// ways — and the final match multiset is still exactly the single-engine
// oracle's, in both count and timed modes.
func TestClusterMembershipConformance(t *testing.T) {
	const n = 4000
	run := func(t *testing.T, carr []pimtree.Arrival, want []pimtree.Match, cfg Config, spare string) {
		t.Helper()
		fe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq := fe.Matches()
		var got []pimtree.Match
		done := make(chan struct{})
		go func() {
			defer close(done)
			for m := range seq {
				got = append(got, m)
			}
		}()
		if err := fe.PushBatch(carr[:1500]); err != nil {
			t.Fatal(err)
		}
		if err := fe.AddNode(spare); err != nil {
			t.Fatal("mid-stream join:", err)
		}
		if err := fe.PushBatch(carr[1500:2500]); err != nil {
			t.Fatal(err)
		}
		if err := fe.RemoveNode(cfg.Nodes[0]); err != nil {
			t.Fatal("mid-stream leave:", err)
		}
		if err := fe.PushBatch(carr[2500:]); err != nil {
			t.Fatal(err)
		}
		if fe.handoffs.Load() == 0 || fe.handoffTuples.Load() == 0 {
			t.Fatalf("membership changes moved no window state (handoffs=%d tuples=%d) — the handoff path went untested",
				fe.handoffs.Load(), fe.handoffTuples.Load())
		}
		if fe.epoch.Load() != 2 {
			t.Fatalf("epoch = %d after join+leave, want 2", fe.epoch.Load())
		}
		if _, err := fe.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-done
		requireSameMultiset(t, got, want)
	}

	t.Run("count", func(t *testing.T) {
		carr := countArrivals(n, 21)
		want := runDirect(t, pimtree.Config{
			Mode:    pimtree.ModeSharded,
			WindowR: testW, WindowS: testW,
			Diff:    pimtree.DiffForMatchRate(testW, 2),
			Backend: pimtree.PIMTree,
			Shards:  3,
		}, carr)
		run(t, carr, want, countClusterCfg(startNodes(t, 2)), startNode(t).Addr().String())
	})
	t.Run("timed", func(t *testing.T) {
		tarr := timedArrivals(n, 22, 50)
		want := runDirect(t, pimtree.Config{
			Mode: pimtree.ModeShardedTime,
			Span: 1024, MaxLive: 512,
			Diff:   pimtree.DiffForMatchRate(128, 2),
			Shards: 3,
			Slack:  50, LatePolicy: pimtree.LateDrop,
		}, sliceCopy(tarr))
		run(t, sliceCopy(tarr), want, timedClusterCfg(startNodes(t, 2)), startNode(t).Addr().String())
	})
}

// TestClusterRemoveLastNodeRefused pins the guard that a cluster never
// shrinks to zero members.
func TestClusterRemoveLastNodeRefused(t *testing.T) {
	addrs := startNodes(t, 1)
	fe, err := New(countClusterCfg(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close(context.Background())
	if err := fe.RemoveNode(addrs[0]); err == nil {
		t.Fatal("removing the last node succeeded")
	}
}

// TestClusterStrictTimedRejectsDisorder pins the strict-order contract: with
// no Slack configured, out-of-order timed input is refused with ErrUnordered
// before anything is routed.
func TestClusterStrictTimedRejectsDisorder(t *testing.T) {
	cfg := timedClusterCfg(startNodes(t, 2))
	cfg.Slack, cfg.LatePolicy = 0, pimtree.LateNone
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close(context.Background())
	err = fe.PushBatch([]pimtree.Arrival{
		{Stream: pimtree.R, Key: 1, TS: 100},
		{Stream: pimtree.S, Key: 2, TS: 99},
	})
	if !errors.Is(err, pimtree.ErrUnordered) {
		t.Fatalf("disordered push: got %v, want ErrUnordered", err)
	}
}

// TestClusterShedPolicy pins degraded routing: when a node dies mid-stream
// under the Shed policy, the frontend keeps accepting input, counts the
// slices routed into the dead range as shed, keeps the survivors' results
// flowing, and still drains.
func TestClusterShedPolicy(t *testing.T) {
	srvA, srvB := startNode(t), startNode(t)
	cfg := countClusterCfg([]string{srvA.Addr().String(), srvB.Addr().String()})
	cfg.Degrade = Shed
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := fe.Matches()
	var matches int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range seq {
			matches++
		}
	}()
	arr := countArrivals(4000, 31)
	if err := fe.PushBatch(arr); err != nil {
		t.Fatal(err)
	}

	// The frontier aggregates per-node status heartbeats; it must become
	// known once every node has answered a ping.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := fe.GlobalFrontier(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("GlobalFrontier never became known")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill node B for real (listener and all member conns); the member
	// reader sees EOF and declares it down without waiting on the prober.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	srvB.Shutdown(ctx)
	cancel()
	deadline = time.Now().Add(10 * time.Second)
	for fe.nodes[1].alive.Load() {
		if time.Now().After(deadline) {
			t.Fatal("frontend never noticed the node death")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Push arrivals addressed squarely into the dead node's half of the key
	// domain: every insert (and the probe band around it) must be counted
	// and dropped, never block the producer or fail the push.
	dead := make([]pimtree.Arrival, 100)
	for i := range dead {
		s := pimtree.R
		if i%2 == 1 {
			s = pimtree.S
		}
		dead[i] = pimtree.Arrival{Stream: s, Key: 3<<30 + uint32(i)}
	}
	if err := fe.PushBatch(dead); err != nil {
		t.Fatalf("push after node death under Shed: %v", err)
	}
	if fe.sheds.Load() == 0 {
		t.Fatal("no slices shed after routing into the dead range")
	}
	if err := fe.Drain(context.Background()); err != nil {
		t.Fatalf("drain after node death under Shed: %v", err)
	}
	if _, err := fe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if matches == 0 {
		t.Fatal("no matches delivered")
	}
}

// TestClusterFailPolicy pins the default policy: a dead node turns the
// frontend into a failed producer — PushBatch reports the node loss instead
// of silently dropping slices.
func TestClusterFailPolicy(t *testing.T) {
	srvA, srvB := startNode(t), startNode(t)
	cfg := countClusterCfg([]string{srvA.Addr().String(), srvB.Addr().String()})
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close(context.Background())
	arr := countArrivals(2000, 41)
	if err := fe.PushBatch(arr[:1000]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	srvB.Shutdown(ctx)
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = fe.PushBatch(arr[1000:1010])
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PushBatch never failed after node death under Fail policy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(err.Error(), "down") {
		t.Fatalf("failure error %q does not name the node loss", err)
	}
}

// TestClusterAdminEndpoints pins the router's admin surface: the membership
// snapshot, live join/leave over HTTP, and the Prometheus families.
func TestClusterAdminEndpoints(t *testing.T) {
	addrs := startNodes(t, 2)
	spare := startNode(t).Addr().String()
	fe, err := New(countClusterCfg(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close(context.Background())
	mux := http.NewServeMux()
	fe.AdminMux(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	snap := func() clusterJSON {
		t.Helper()
		resp, err := http.Get(ts.URL + "/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cj clusterJSON
		if err := json.NewDecoder(resp.Body).Decode(&cj); err != nil {
			t.Fatal(err)
		}
		return cj
	}
	if cj := snap(); len(cj.Nodes) != 2 || cj.Epoch != 0 {
		t.Fatalf("initial snapshot: %+v", cj)
	}

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post("/cluster/join", `{"addr":"`+spare+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	if cj := snap(); len(cj.Nodes) != 3 || cj.Epoch != 1 {
		t.Fatalf("post-join snapshot: %+v", cj)
	}
	if resp := post("/cluster/leave", `{"addr":"`+spare+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: status %d", resp.StatusCode)
	}
	if cj := snap(); len(cj.Nodes) != 2 || cj.Epoch != 2 {
		t.Fatalf("post-leave snapshot: %+v", cj)
	}
	if resp := post("/cluster/leave", `{"addr":"no-such-node"}`); resp.StatusCode == http.StatusOK {
		t.Fatal("leaving an unknown node succeeded")
	}

	fams := fe.PromFamilies()
	wantFams := map[string]bool{
		"pimtree_cluster_nodes": false, "pimtree_cluster_epoch": false,
		"pimtree_cluster_node_alive": false,
	}
	for _, f := range fams {
		if _, ok := wantFams[f.Name]; ok {
			wantFams[f.Name] = true
		}
	}
	for name, seen := range wantFams {
		if !seen {
			t.Fatalf("prometheus family %s missing", name)
		}
	}
}
