package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/service"
)

// sharedFleetRequest is a fleet-diurnal job on one topology — no fan spread,
// machines spread over aisles 6 °C apart — so every machine of every such
// job resolves the same propagator store entry.
func sharedFleetRequest(t *testing.T, seed uint64) service.Request {
	t.Helper()
	spec, ok := scenario.Get("fleet-diurnal")
	if !ok {
		t.Fatal("fleet-diurnal missing from the library")
	}
	s := spec.Clone()
	s.Name = fmt.Sprintf("store-fleet-%d", seed)
	s.Fleet = scenario.FleetSpec{Machines: 16, BaseSeed: seed, AmbientSpreadC: 6}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return service.Request{Kind: service.KindScenario, Spec: raw, Scale: goldenScale}
}

// jobBytes is a finished job's rendered output and files, in order.
func jobBytes(t *testing.T, c *service.Client, job service.JobView) []string {
	t.Helper()
	out, err := c.Output(job.ID)
	if err != nil {
		t.Fatalf("output %s: %v", job.ID, err)
	}
	got := []string{out}
	for _, name := range job.Files {
		f, err := c.File(job.ID, name)
		if err != nil {
			t.Fatalf("file %s of %s: %v", name, job.ID, err)
		}
		got = append(got, name, string(f))
	}
	return got
}

func openDaemon(t *testing.T, jobs int) (*service.Client, func()) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, DefaultScale: goldenScale, Engine: engine.Config{Jobs: jobs}})
	srv := httptest.NewServer(svc.Handler())
	return service.NewClient(srv.URL), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		srv.Close()
	}
}

// TestDaemonPropStoreSharedAcrossJobs pins the daemon-lifetime propagator
// store: two scenario jobs run one after the other on one daemon, the second
// taking every propagator from the store the first filled, give the same
// bytes as the same two jobs each on a fresh daemon — at one engine worker
// and at eight.
func TestDaemonPropStoreSharedAcrossJobs(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			reqs := []service.Request{sharedFleetRequest(t, 41), sharedFleetRequest(t, 42)}

			shared, closeShared := openDaemon(t, jobs)
			defer closeShared()
			var got [][]string
			for _, req := range reqs {
				got = append(got, jobBytes(t, shared, runRemote(t, shared, req)))
			}
			met, err := shared.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				"dimd_propstore_misses_total 1\n",
				"dimd_propstore_hits_total 31\n",
			} {
				if !strings.Contains(met, want) {
					t.Errorf("shared daemon /metrics lacks %q: the jobs did not share one store entry", strings.TrimSpace(want))
				}
			}

			for i, req := range reqs {
				fresh, closeFresh := openDaemon(t, jobs)
				want := jobBytes(t, fresh, runRemote(t, fresh, req))
				closeFresh()
				if len(got[i]) != len(want) {
					t.Fatalf("job %d: shared daemon rendered %d parts, fresh daemon %d", i, len(got[i]), len(want))
				}
				for k := range want {
					if got[i][k] != want[k] {
						t.Errorf("job %d part %d differs between the shared-store daemon and a fresh one", i, k)
					}
				}
			}
		})
	}
}
