package sweep

import (
	"fmt"
	"os"
	"path/filepath"

	"dramlat"
	"dramlat/internal/telemetry"
)

// TraceRunner returns an Engine.Runner that runs every spec under opts
// (replacing the spec's own Telemetry options) and writes the run's
// artifacts into dir, named by the spec's canonical hash, before it
// returns: a sweep's traces are complete as soon as the Progress event
// for the spec fires. Cache hits have no live run to trace, so a resumed
// sweep only emits artifacts for freshly executed specs.
func TraceRunner(dir string, opts dramlat.TelemetryOptions) func(dramlat.RunSpec) (dramlat.Results, error) {
	return func(spec dramlat.RunSpec) (dramlat.Results, error) {
		if spec.IsSampled() {
			// A sampled run's fast-forward regions are modeled, not
			// simulated: most of the trace simply does not exist, and a
			// partial artifact indistinguishable from a full one would
			// poison downstream analysis. Fail the spec with a typed
			// field error instead (dlsweep rejects the combination up
			// front; this guards library callers).
			return dramlat.Results{}, &dramlat.ValidationError{Fields: []dramlat.FieldError{{
				Field: "Telemetry", Value: "sampled",
				Msg: "telemetry capture is not available for sampled runs: fast-forward regions are modeled and have no events to record",
			}}}
		}
		spec.Telemetry = opts
		res, tel, err := dramlat.RunTelemetry(spec)
		if tel != nil {
			// A MaxTicks run still has a (partial) trace worth keeping.
			if werr := writeArtifacts(dir, spec.Hash(), tel); werr != nil && err == nil {
				err = werr
			}
		}
		return res, err
	}
}

// writeArtifacts writes one run's telemetry bundle into dir, one file per
// enabled subsystem, named by the run's spec hash:
//
//	<hash>.events.jsonl   event trace (tracer enabled)
//	<hash>.channels.csv   per-channel interval table (sampler enabled)
//	<hash>.sms.csv        per-SM stall interval table (sampler enabled)
func writeArtifacts(dir, hash string, tel *dramlat.Telemetry) error {
	if tel == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sweep: telemetry dir: %w", err)
	}
	write := func(name string, emit func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, hash+name))
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if tel.Tracer != nil {
		err := write(".events.jsonl", func(f *os.File) error {
			return telemetry.WriteJSONL(f, tel.Tracer.Events())
		})
		if err != nil {
			return fmt.Errorf("sweep: events: %w", err)
		}
	}
	if tel.Sampler != nil {
		err := write(".channels.csv", func(f *os.File) error {
			return telemetry.WriteChannelCSV(f, tel.Sampler.ChannelIntervals())
		})
		if err != nil {
			return fmt.Errorf("sweep: channel intervals: %w", err)
		}
		err = write(".sms.csv", func(f *os.File) error {
			return telemetry.WriteSMCSV(f, tel.Sampler.SMIntervals())
		})
		if err != nil {
			return fmt.Errorf("sweep: sm intervals: %w", err)
		}
	}
	return nil
}
