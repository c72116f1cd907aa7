package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"
)

// Options are a CLI's already-parsed observability flags.
type Options struct {
	// Prog names the CLI on the "diagnostics at" line; Stderr receives that
	// line and the -verbose narration.
	Prog   string
	Stderr io.Writer

	Verbose    bool    // -verbose: narrate the run log as JSONL on Stderr
	DebugAddr  string  // -debug-addr: serve live diagnostics here
	SlowPhase  float64 // -slow-phase: the slow-phase factor (≤ 1 disables)
	ProfileDir string  // -profile-dir: harvest pprof captures here
	RecordDir  string  // -record: flight-record root
	Meta       RunMeta // stamped into recorded manifests
	// Comm and Skew keep a Log for the -comm CSV and the -skew table even
	// when nothing else needs one.
	Comm, Skew bool
}

// Session is the observer set one CLI invocation runs under.
type Session struct {
	// Hooks is every observer composed; nil when no flag asked for one, so
	// engines keep their fast path.
	Hooks Hooks
	// Recorder is set under -record, and Log (the Recorder's own, when there
	// is one) whenever -verbose, -comm, -skew, -record or -debug-addr needs
	// the run log.
	Log      *Log
	Recorder *Recorder

	harvester *Harvester
	server    *Server
}

// Setup builds the observers the flags ask for, starts the profile harvester
// and the diagnostics server, and composes the Hooks. Call Close when the runs
// are over. Errors name the flag whose value was unusable.
func Setup(o Options) (*Session, error) {
	s := &Session{}
	var hooks []Hooks
	if o.ProfileDir != "" {
		var err error
		if s.harvester, err = NewHarvester(o.ProfileDir, HarvesterOptions{}); err != nil {
			return nil, fmt.Errorf("-profile-dir %s: %w", o.ProfileDir, err)
		}
		hooks = append(hooks, s.harvester)
	}
	switch {
	case o.RecordDir != "":
		var err error
		if s.Recorder, err = NewRecorder(o.RecordDir); err != nil {
			return nil, fmt.Errorf("-record %s: %w", o.RecordDir, err)
		}
		s.Recorder.SetMeta(o.Meta)
		s.Recorder.harvester = s.harvester
		s.Log = s.Recorder.Log
		hooks = append(hooks, s.Recorder)
	case o.Verbose || o.Comm || o.Skew || o.DebugAddr != "":
		s.Log = NewLog()
		hooks = append(hooks, s.Log)
	}
	if s.Log != nil {
		s.Log.slow = o.SlowPhase
		if o.Verbose {
			s.Log.verbose = slog.NewJSONHandler(o.Stderr, nil)
		}
	}
	if o.DebugAddr != "" {
		var err error
		s.server, err = Serve(o.DebugAddr, Sources{Log: s.Log, RunsDir: o.RecordDir, ProfileDir: o.ProfileDir})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Stderr, "%s: diagnostics at %s\n", o.Prog, s.server.URL())
	}
	if s.harvester != nil {
		s.harvester.Start()
	}
	s.Hooks = Multi(hooks...)
	return s, nil
}

// Close stops the harvester and drains the diagnostics server. Shutdown, not
// Close, so an in-flight /metrics scrape racing the process exit completes.
func (s *Session) Close() {
	if s.harvester != nil {
		s.harvester.Stop()
	}
	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.server.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
	}
}
