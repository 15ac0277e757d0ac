package verify

// Differential verification of the two capture paths: a workload
// captured into a trace directory must agree with its anonymous
// capture, and every panel configuration must produce
// identical statistics from both. Generated panel programs are tiny, so
// this check runs on named workloads.

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/trace"
)

// CheckStreamed captures the named workload twice, once into an
// anonymous temp file and once into dir, and requires the two traces to
// agree on every execution property; then every panel configuration
// must produce identical monolithic statistics from both traces.
func CheckStreamed(workload, dir string) error {
	w, err := prog.ByName(workload)
	if err != nil {
		return err
	}
	p, err := w.Program()
	if err != nil {
		return err
	}
	anon, err := trace.Capture(p, maxInsts)
	if err != nil {
		return fmt.Errorf("verify: %s: %w", workload, err)
	}
	defer anon.Close()
	disk, err := trace.CaptureToDir(p, maxInsts, dir)
	if err != nil {
		return fmt.Errorf("verify: %s (streamed): %w", workload, err)
	}
	defer disk.Close()
	if anon.Steps() != disk.Steps() {
		return fmt.Errorf("verify: %s: streamed capture took %d steps, anonymous %d", workload, disk.Steps(), anon.Steps())
	}
	if anon.StateHash() != disk.StateHash() {
		return fmt.Errorf("verify: %s: streamed capture's final state diverges from the anonymous capture's", workload)
	}
	for _, cfg := range Panel() {
		bare := cfg
		bare.CheckInvariants = false
		bare.RecordTimeline = false
		fromAnon, err := replayMono(bare, anon)
		if err != nil {
			return fmt.Errorf("verify: %s on %s: %w", workload, bare.Name, err)
		}
		fromDisk, err := replayMono(bare, disk)
		if err != nil {
			return fmt.Errorf("verify: %s on %s (streamed): %w", workload, bare.Name, err)
		}
		if err := pipeline.DiffStats(fromDisk, fromAnon); err != nil {
			return fmt.Errorf("verify: %s on %s: streamed reader diverges from anonymous: %w", workload, bare.Name, err)
		}
	}
	return nil
}

func replayMono(cfg pipeline.Config, tr *trace.Trace) (pipeline.Stats, error) {
	sim, err := pipeline.NewReplay(cfg, trace.NewReader(tr))
	if err != nil {
		return pipeline.Stats{}, err
	}
	return sim.Run(maxCycles)
}
