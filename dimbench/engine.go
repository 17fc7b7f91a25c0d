package main

import (
	"encoding/json"
	"time"

	"repro/internal/fleetsched"
	"repro/internal/scenario"
	"repro/internal/service"
)

// telemetryEvery and checkpointEvery are the daemon's default hook cadences
// (service.Config's TelemetryEvery and CheckpointEvery), so a direct run
// does the hook work a daemon job does.
const (
	telemetryEvery  = 50
	checkpointEvery = 5
)

// engineRun is one direct library run of a spec, outside the daemon: the
// bytes the daemon must reproduce, and the engine's layer times.
type engineRun struct {
	art         artifact
	machines    int
	compile     time.Duration // Spec.Compile alone
	wall        time.Duration // the engine's RunOpts call
	cpu         time.Duration // process CPU time across that call
	aggregate   time.Duration // scenario.Aggregate alone
	render      time.Duration // Result.String and RenderResult
	rounds      []float64     // ms between successive round barriers
	checkpoints []float64     // bytes of each persisted round checkpoint
}

// runScenario runs an unscheduled spec through scenario.RunOpts with the
// daemon's telemetry cadence.
func runScenario(spec *scenario.Spec, scale float64) (engineRun, error) {
	var e engineRun
	t0 := time.Now()
	e.machines = len(spec.Compile(scale))
	e.compile = time.Since(t0)
	cpu0 := cpuTime()
	t0 = time.Now()
	res, err := scenario.RunOpts(spec, scale, scenario.RunOptions{
		TelemetryEvery: telemetryEvery,
		OnTelemetry:    func(scenario.MachineSample) {},
		OnMachine:      func(scenario.MachineResult) {},
	})
	e.wall, e.cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return e, err
	}
	t0 = time.Now()
	scenario.Aggregate(spec, res.Machines)
	e.aggregate = time.Since(t0)
	t0 = time.Now()
	e.art = artifact{output: res.String(), files: scenario.RenderResult(res)}
	e.render = time.Since(t0)
	return e, nil
}

// runSched runs a scheduled spec through fleetsched.RunOpts under its
// default policy, with a round hook and the daemon's checkpoint cadence.
func runSched(spec *scenario.Spec, scale float64) (engineRun, error) {
	var e engineRun
	t0 := time.Now()
	e.machines = len(spec.Compile(scale))
	e.compile = time.Since(t0)
	var last time.Time
	opts := fleetsched.Options{
		OnRound: func(fleetsched.RoundTelemetry) {
			now := time.Now()
			if !last.IsZero() {
				e.rounds = append(e.rounds, ms(now.Sub(last)))
			}
			last = now
		},
		CheckpointEvery: checkpointEvery,
		OnCheckpoint: func(cp fleetsched.Checkpoint) {
			// The daemon persists exactly this document per checkpoint.
			if raw, err := json.Marshal(service.JobCheckpoint{Kind: service.KindSched, Sched: &cp}); err == nil {
				e.checkpoints = append(e.checkpoints, float64(len(raw)))
			}
		},
	}
	cpu0 := cpuTime()
	t0 = time.Now()
	res, err := fleetsched.RunOpts(spec, "", scale, opts)
	e.wall, e.cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return e, err
	}
	t0 = time.Now()
	files, err := fleetsched.RenderResult(res)
	e.art = artifact{output: res.String(), files: files}
	e.render = time.Since(t0)
	return e, err
}
