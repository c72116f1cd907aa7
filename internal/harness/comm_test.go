package harness

// Acceptance test for the traffic matrix: on multi-worker runs of all three
// engines, the per-superstep deltas the kernel puts in each StepRecord must
// accumulate in the run log to exactly the transport's raw wire counters — same
// message count, same wire-byte count, no sampling, no estimation. Also checks
// that Options.Audit threads through every runner without breaking a clean
// run.

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

func TestCommMatrixMatchesTransportStats(t *testing.T) {
	o := tiny()
	ctx, err := workloadSpec{"PR", "wiki"}.prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		t.Run(engine, func(t *testing.T) {
			log := obs.NewLog()
			p := ctx.params
			p.Hooks = log
			p.Audit = true // a clean run must stay clean under audit
			r, err := RunWorkload(engine, "PR", ctx.graph, o.flat(), partition.Hash{}, p)
			if err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if r.Supersteps == 0 {
				t.Fatal("run did no supersteps")
			}

			cum := log.Cumulative()
			if cum.Workers != o.flat().Workers() {
				t.Fatalf("matrix has %d workers, cluster has %d", cum.Workers, o.flat().Workers())
			}
			if got, want := cum.TotalMessages(), r.Transport.Messages; got != want {
				t.Errorf("matrix messages = %d, transport counted %d", got, want)
			}
			if got, want := cum.TotalWireBytes(), r.Transport.WireBytes; got != want {
				t.Errorf("matrix wire bytes = %d, transport counted %d", got, want)
			}
			if cum.TotalMessages() == 0 {
				t.Error("no traffic recorded on a multi-worker run")
			}

			// Row and column marginals must both sum to the same total.
			var egress, ingress int64
			for _, v := range cum.Egress() {
				egress += v
			}
			for _, v := range cum.Ingress() {
				ingress += v
			}
			if egress != cum.TotalMessages() || ingress != cum.TotalMessages() {
				t.Errorf("marginals disagree: egress %d, ingress %d, total %d",
					egress, ingress, cum.TotalMessages())
			}
		})
	}
}

// TestOneByteBook pins the single byte count across every layer that reports
// traffic: the transport's Stats, the run log's cumulative matrix and its
// per-worker marginals, the comm CSV, series.csv and the manifest all carry
// the same wire bytes, to the byte.
func TestOneByteBook(t *testing.T) {
	o := tiny()
	ctx, err := workloadSpec{"PR", "wiki"}.prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := obs.NewRecorder(dir)
			if err != nil {
				t.Fatal(err)
			}
			p := ctx.params
			p.Hooks = rec
			r, err := RunWorkload(engine, "PR", ctx.graph, o.flat(), partition.Hash{}, p)
			if err != nil {
				t.Fatal(err)
			}
			want := r.Transport.WireBytes
			if want == 0 {
				t.Fatal("no wire bytes on a multi-worker run")
			}
			cum := rec.Cumulative()
			var egress, ingress int64
			in := cum.IngressBytes()
			for w, eg := range cum.EgressBytes() {
				egress, ingress = egress+eg, ingress+in[w]
			}
			var csv strings.Builder
			if err := rec.WriteCommCSV(&csv); err != nil {
				t.Fatal(err)
			}
			m := rec.Manifests()[0]
			series, err := os.ReadFile(filepath.Join(dir, m.Run, "series.csv"))
			if err != nil {
				t.Fatal(err)
			}
			books := map[string]int64{
				"log matrix":      cum.TotalWireBytes(),
				"egress marginal": egress, "ingress marginal": ingress,
				"comm CSV":   sumColumn(t, csv.String(), "wire_bytes"),
				"series.csv": sumColumn(t, string(series), "wire_bytes"),
				"manifest":   m.WireBytes,
			}
			for name, got := range books {
				if got != want {
					t.Errorf("%s books %d wire bytes, transport %d", name, got, want)
				}
			}
		})
	}
}

// sumColumn sums the named integer column of a CSV with a header line.
func sumColumn(t *testing.T, csv, column string) int64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	col := slices.Index(strings.Split(lines[0], ","), column)
	if col < 0 {
		t.Fatalf("no %q column in %q", column, lines[0])
	}
	var n int64
	for _, line := range lines[1:] {
		v, err := strconv.ParseInt(strings.Split(line, ",")[col], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		n += v
	}
	return n
}
