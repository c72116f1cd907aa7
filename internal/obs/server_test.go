package obs_test

// Acceptance test for the live diagnostics server: while a Cyclops PageRank
// run on the wiki-class synthetic dataset advances, /metrics must serve
// parseable Prometheus text with the engine series present, /trace must serve
// valid JSONL, and /debug/pprof/ must answer. A gate hook pauses the engine
// between two supersteps so the scrapes deterministically observe a run in
// flight.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
)

// gate blocks the engine's coordinator at the end of superstep `at` until the
// test releases it.
type gate struct {
	obs.Nop
	at      int
	reached chan struct{}
	release chan struct{}
}

func (g *gate) OnSuperstep(rec *obs.StepRecord) {
	if rec.Step == g.at {
		close(g.reached)
		<-g.release
	}
}

// promLine matches one Prometheus text exposition sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ` +
		`(-?[0-9.e+-]+|\+Inf|NaN)$`)

func TestServerLiveDuringRun(t *testing.T) {
	g, _, err := gen.Dataset("wiki", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}

	log := obs.NewLog()
	gt := &gate{at: 2, reached: make(chan struct{}), release: make(chan struct{})}
	recDir := t.TempDir()
	rec, err := obs.NewRecorder(recDir)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := obs.Serve("127.0.0.1:0", obs.Sources{Log: log, RunsDir: recDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-9},
		cyclops.Config[float64, float64]{
			Cluster:       cluster.Flat(2, 2),
			MaxSupersteps: 20,
			Hooks:         obs.Multi(log, rec, gt),
		})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.Run()
		done <- err
	}()

	select {
	case <-gt.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached superstep 2")
	}
	// The run is now provably in flight: superstep 2 ended, the coordinator
	// is parked in our gate, more supersteps are pending.

	t.Run("metrics", func(t *testing.T) {
		body := get(t, srv.URL()+"/metrics", "text/plain")
		var samples int
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if !promLine.MatchString(line) {
				t.Errorf("unparseable Prometheus sample line: %q", line)
			}
			samples++
		}
		if samples == 0 {
			t.Fatal("no samples in /metrics")
		}
		for _, want := range []string{
			obs.MetricSupersteps + " 3", // steps 0,1,2 completed, run gated
			obs.MetricActive,
			obs.MetricMessages,
			obs.MetricPhase + `_bucket{phase="CMP"`,
			obs.MetricReplication,
			obs.MetricWorkerEgress + `{worker="0"}`,
			obs.MetricWorkerIngress + `{worker="3"}`,
			obs.MetricWorkers + " 4",
			"go_goroutines",
			"go_heap_alloc_bytes",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		body := get(t, srv.URL()+"/trace", "application/x-ndjson")
		sc := bufio.NewScanner(strings.NewReader(body))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		var lines, runStarts, stepEnds int
		for sc.Scan() {
			var ev map[string]any
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
			}
			lines++
			switch ev["msg"] {
			case "run-start":
				runStarts++
				if ev["engine"] != "cyclops" {
					t.Errorf("run-start engine = %v, want cyclops", ev["engine"])
				}
			case "superstep":
				stepEnds++
			}
		}
		if lines == 0 || runStarts != 1 || stepEnds != 3 {
			t.Errorf("trace shape: %d lines, %d run-starts, %d superstep ends; want >0/1/3",
				lines, runStarts, stepEnds)
		}
	})

	t.Run("comm", func(t *testing.T) {
		body := get(t, srv.URL()+"/comm", "application/json")
		var doc struct {
			Engine   string    `json:"engine"`
			Workers  int       `json:"workers"`
			Messages [][]int64 `json:"messages"`
			Total    int64     `json:"messages_total"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("invalid /comm JSON: %v", err)
		}
		if doc.Engine != "cyclops" || doc.Workers != 4 || len(doc.Messages) != 4 {
			t.Errorf("/comm shape: engine=%q workers=%d rows=%d", doc.Engine, doc.Workers, len(doc.Messages))
		}
		if doc.Total <= 0 {
			t.Errorf("/comm messages_total = %d mid-run, want > 0", doc.Total)
		}
		prom := get(t, srv.URL()+"/comm?format=prom", "text/plain")
		for _, line := range strings.Split(strings.TrimRight(prom, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if !promLine.MatchString(line) {
				t.Errorf("unparseable /comm prom line: %q", line)
			}
		}
		if !strings.Contains(prom, obs.MetricCommMessages+"{from=") {
			t.Errorf("/comm prom output missing %s series", obs.MetricCommMessages)
		}
	})

	t.Run("heat", func(t *testing.T) {
		body := get(t, srv.URL()+"/heat", "application/json")
		var doc struct {
			Engine     string              `json:"engine"`
			Done       bool                `json:"done"`
			Partitions []obs.HeatPartition `json:"partitions"`
			Hot        []obs.HotVertex     `json:"hot"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("invalid /heat JSON: %v", err)
		}
		// Steps 0,1,2 completed at 4 workers each; the run is gated mid-flight.
		if doc.Engine != "cyclops" || doc.Done || len(doc.Partitions) != 3*4 {
			t.Errorf("/heat shape: engine=%q done=%v rows=%d, want cyclops/false/12",
				doc.Engine, doc.Done, len(doc.Partitions))
		}
		if len(doc.Hot) == 0 {
			t.Error("/heat hot set empty mid-run")
		}
		var traffic int64
		for _, p := range doc.Partitions {
			traffic += p.OutInterior + p.OutBoundary
		}
		if traffic <= 0 {
			t.Error("/heat rows carry no traffic mid-run")
		}

		csv := get(t, srv.URL()+"/heat?format=csv", "text/csv")
		if rows, err := obs.ParseHeatCSV([]byte(csv)); err != nil || len(rows) != len(doc.Partitions) {
			t.Errorf("/heat?format=csv: %d rows, err %v", len(rows), err)
		}
		hotcsv := get(t, srv.URL()+"/heat?format=hotcsv", "text/csv")
		if hot, err := obs.ParseHotsetCSV([]byte(hotcsv)); err != nil || len(hot) != len(doc.Hot) {
			t.Errorf("/heat?format=hotcsv: %d entries, err %v", len(hot), err)
		}

		// Unknown formats fail fast with the accepted set, on every endpoint
		// sharing the negotiation helper.
		for _, path := range []string{"/heat", "/comm", "/mem", "/spans"} {
			resp, err := http.Get(srv.URL() + path + "?format=bogus")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s?format=bogus: status %d, want 400", path, resp.StatusCode)
			}
			if !strings.Contains(string(body), "json") {
				t.Errorf("%s?format=bogus error does not list accepted formats: %q", path, body)
			}
		}
	})

	t.Run("mem", func(t *testing.T) {
		var doc struct {
			Engine string        `json:"engine"`
			Done   bool          `json:"done"`
			Steps  []obs.MemStep `json:"steps"`
		}
		if err := json.Unmarshal([]byte(get(t, srv.URL()+"/mem", "application/json")), &doc); err != nil {
			t.Fatalf("invalid /mem JSON: %v", err)
		}
		if doc.Engine != "cyclops" || doc.Done || len(doc.Steps) != 3 || doc.Steps[2].Step != 2 {
			t.Errorf("/mem shape: engine=%q done=%v steps=%d", doc.Engine, doc.Done, len(doc.Steps))
		}
		csv := get(t, srv.URL()+"/mem?format=csv", "text/csv")
		if steps, err := obs.ParseMemCSV([]byte(csv)); err != nil || len(steps) != 3 {
			t.Errorf("/mem?format=csv: %d rows, err %v", len(steps), err)
		}
	})

	t.Run("spans", func(t *testing.T) {
		var doc struct {
			Engine   string          `json:"engine"`
			Open     []span.Span     `json:"open"`
			CritPath []span.StepPath `json:"critpath"`
			Spans    []span.Span     `json:"spans"`
		}
		if err := json.Unmarshal([]byte(get(t, srv.URL()+"/spans", "application/json")), &doc); err != nil {
			t.Fatalf("invalid /spans JSON: %v", err)
		}
		// Three supersteps closed, the run span still open, no run span in the
		// completed stream yet.
		if doc.Engine != "cyclops" || len(doc.CritPath) != 3 || len(doc.Open) != 1 || doc.Open[0].Kind != span.Run {
			t.Errorf("/spans shape: engine=%q critpath=%d open=%+v", doc.Engine, len(doc.CritPath), doc.Open)
		}
		if n := len(doc.Spans); n < 3*(4*4+1) || doc.Spans[n-1].Kind != span.Superstep || doc.Spans[n-1].Step != 2 {
			t.Errorf("/spans stream: %d spans", n)
		}
		if text := get(t, srv.URL()+"/spans?format=text&step=1", "text/plain"); !strings.Contains(text, "superstep 1") {
			t.Errorf("/spans?format=text&step=1:\n%s", text)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		get(t, srv.URL()+"/debug/pprof/", "")
		get(t, srv.URL()+"/debug/pprof/goroutine?debug=1", "")
	})

	close(gt.release)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}

	// After the run, the converged counter and final step totals must land.
	body := get(t, srv.URL()+"/metrics", "")
	if !strings.Contains(body, obs.MetricRunsDone) {
		t.Errorf("post-run /metrics missing %s", obs.MetricRunsDone)
	}

	// The flight recorder wrote the run; /runs must list it and serve its
	// artifacts.
	t.Run("runs", func(t *testing.T) {
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		var ms []obs.Manifest
		if err := json.Unmarshal([]byte(get(t, srv.URL()+"/runs", "application/json")), &ms); err != nil {
			t.Fatalf("invalid /runs JSON: %v", err)
		}
		if len(ms) != 1 || ms[0].Engine != "cyclops" || ms[0].Supersteps < 3 {
			t.Fatalf("/runs = %+v, want one cyclops run with ≥3 supersteps", ms)
		}
		record := get(t, srv.URL()+"/runs/"+ms[0].Run, "")
		if rec, err := obs.ParseRecord(ms[0].Run, []byte(record)); err != nil {
			t.Errorf("/runs/%s does not read back: %v", ms[0].Run, err)
		} else if rec.Manifest != ms[0] || len(rec.Series) != ms[0].Supersteps {
			t.Errorf("/runs/%s = %+v with %d series rows, listed as %+v", ms[0].Run, rec.Manifest, len(rec.Series), ms[0])
		}
		for _, path := range []string{"/runs/../secrets", "/runs/" + ms[0].Run + "/x", "/runs/other"} {
			if resp, err := http.Get(srv.URL() + path); err == nil {
				if resp.StatusCode == http.StatusOK {
					t.Errorf("%s served: /runs/ must serve run records only", path)
				}
				resp.Body.Close()
			}
		}
	})
}

// TestTraceMatchesVerbose: -verbose and /trace are two renders of one log, so
// with a real run gated after superstep 2, /trace serves exactly the lines
// stderr has printed for the run so far, and once the run ends all of them.
func TestTraceMatchesVerbose(t *testing.T) {
	g, _, err := gen.Dataset("wiki", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	sess, err := obs.Setup(obs.Options{Prog: "trace", Stderr: &stderr, Verbose: true,
		DebugAddr: "127.0.0.1:0", SlowPhase: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	banner, _, _ := strings.Cut(stderr.String(), "\n")
	url := strings.TrimPrefix(banner, "trace: diagnostics at ")
	printed := func() string { return strings.TrimPrefix(stderr.String(), banner+"\n") }

	gt := &gate{at: 2, reached: make(chan struct{}), release: make(chan struct{})}
	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-9},
		cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 2), MaxSupersteps: 20,
			Hooks: obs.Multi(sess.Hooks, gt)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run()
		done <- err
	}()
	select {
	case <-gt.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached superstep 2")
	}
	mid := printed()
	if n := strings.Count(mid, `"msg":"superstep"`); !strings.HasPrefix(mid, "{") || n != 3 {
		t.Fatalf("stderr mid-run: %d superstep lines, want 3:\n%s", n, mid)
	}
	if body := get(t, url+"/trace", "application/x-ndjson"); body != mid {
		t.Errorf("/trace mid-run differs from -verbose at: %s", firstDiffLine([]byte(body), []byte(mid)))
	}

	close(gt.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	all := printed()
	if !strings.Contains(all, `"msg":"run-end"`) {
		t.Fatalf("stderr after the run lacks run-end:\n%s", all)
	}
	if body := get(t, url+"/trace", ""); body != all {
		t.Errorf("/trace after the run differs from -verbose at: %s", firstDiffLine([]byte(body), []byte(all)))
	}
}

func get(t *testing.T, url, wantCT string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if wantCT != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), wantCT) {
		t.Fatalf("GET %s: Content-Type %q, want prefix %q", url, resp.Header.Get("Content-Type"), wantCT)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

// TestRunsListsOnlyCompleteRuns races /runs scrapes against an in-progress
// Recorder flush. The recorder fills a dot-named temp file and renames it
// into place, so any run a scrape lists must already have its whole record
// on disk — a listing never observes a half-written run.
func TestRunsListsOnlyCompleteRuns(t *testing.T) {
	recDir := t.TempDir()
	rec, err := obs.NewRecorder(recDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.Sources{Log: obs.NewLog(), RunsDir: recDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL() + "/runs")
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("/runs status %d: %s", resp.StatusCode, body):
					default:
					}
					continue
				}
				var ms []obs.Manifest
				if err := json.Unmarshal(body, &ms); err != nil {
					select {
					case errs <- fmt.Sprintf("/runs returned unparseable JSON during flush: %v", err):
					default:
					}
					continue
				}
				for _, m := range ms {
					if m.Supersteps == 0 || m.StopReason == "" {
						select {
						case errs <- fmt.Sprintf("/runs served incomplete manifest %+v", m):
						default:
						}
					}
					if _, err := obs.ReadRecord(recDir, m.Run); err != nil {
						select {
						case errs <- fmt.Sprintf("%s listed before its record was whole: %v", m.Run, err):
						default:
						}
					}
				}
			}
		}()
	}

	// Drive many small synthetic runs through the recorder as fast as it can
	// flush them, maximising the window a racing scrape could hit.
	const runs = 40
	for r := 0; r < runs; r++ {
		rec.OnRunStart(obs.RunInfo{Run: 1, Engine: "synthetic", Workers: 2, Vertices: 10, Edges: 20})
		for s := 0; s < 3; s++ {
			rec.OnSuperstepStart(s)
			sr := stepRecord(s, []int64{5, 5}, []int64{1, 1}, []int64{1, 1}, []int64{1, 0})
			sr.Stats.Active = 1
			rec.OnSuperstep(sr)
		}
		rec.OnRunEnd(obs.RunEnd{Step: 2, Reason: obs.ReasonHalt, Wall: 3 * time.Millisecond})
	}
	close(stop)
	wg.Wait()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Quiescent state: every run visible, every record whole.
	var ms []obs.Manifest
	if err := json.Unmarshal([]byte(get(t, srv.URL()+"/runs", "application/json")), &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != runs {
		t.Fatalf("/runs lists %d runs after flushes, want %d", len(ms), runs)
	}
}

// TestServeEphemeralPort keeps ":0" usable for tests and CLIs.
func TestServeEphemeralPort(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", obs.Sources{Log: obs.NewLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", srv.URL())
	}
	body := get(t, srv.URL()+"/", "")
	for _, want := range []string{"/metrics", "/trace", "/comm", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	if resp, err := http.Get(srv.URL() + "/nope"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}
