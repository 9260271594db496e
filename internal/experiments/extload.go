package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/fleet"
)

// ExtLoadResult is an extension experiment beyond the paper's figures:
// it quantifies the §I motivation directly — "the surge in the number of
// images puts high pressure on the registry in terms of bandwidth" — by
// having a fleet of independent clients deploy the same image set and
// measuring total registry egress and mean deployment time under Docker
// and under Gear.
type ExtLoadResult struct {
	Clients int `json:"clients"`
	Deploys int `json:"deploysPerClient"`
	// DockerEgress/GearEgress are total bytes served by the registries.
	DockerEgress int64 `json:"dockerEgress"`
	GearEgress   int64 `json:"gearEgress"`
	// DockerMeanTime/GearMeanTime are mean per-deployment times.
	DockerMeanTime time.Duration `json:"dockerMeanTime"`
	GearMeanTime   time.Duration `json:"gearMeanTime"`
}

// EgressSaving returns Gear's registry-egress reduction.
func (r *ExtLoadResult) EgressSaving() float64 {
	if r.DockerEgress == 0 {
		return 0
	}
	return 1 - float64(r.GearEgress)/float64(r.DockerEgress)
}

// RunExtLoad deploys one series' versions from every simulated client.
// Each client is an independent daemon (own layer store, own Gear cache)
// sharing the registries, like a fleet of edge nodes pulling the same
// rollout. The Gear clients are the nodes of a peerless fleet; Docker's
// are standalone daemons.
func RunExtLoad(cfg Config) (*ExtLoadResult, error) {
	const clients = 8
	co, err := cfg.newCorpus([]string{"nginx"})
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, co.Series(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	s := &wl.Series[0]

	res := &ExtLoadResult{Clients: clients, Deploys: len(s.Tags)}
	var dockerTotal time.Duration
	for c := 0; c < clients; c++ {
		d, err := cfg.newDaemon(wl, 100)
		if err != nil {
			return nil, err
		}
		for v, tag := range s.Tags {
			dep, err := d.DeployDocker(s.Name, tag, s.Access[v], s.Compute)
			if err != nil {
				return nil, err
			}
			res.DockerEgress += dep.Pull.Bytes + dep.Run.Bytes
			dockerTotal += dep.Total()
		}
	}
	res.DockerMeanTime = dockerTotal / time.Duration(clients*len(s.Tags))

	h, err := cfg.fleet(wl, clients, 100, fleet.Options{})
	if err != nil {
		return nil, err
	}
	gear, err := rollout(h, clients)
	if err != nil {
		return nil, err
	}
	res.GearEgress, res.GearMeanTime = gear.WAN.Bytes, gear.MeanDeploy
	return res, nil
}

// Print renders the fleet-load comparison.
func (r *ExtLoadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%d clients x %d rolling deployments each, 100 Mbps links\n",
		r.Clients, r.Deploys)
	fmt.Fprintf(w, "%-8s %16s %16s\n", "system", "registry egress", "mean deploy")
	fmt.Fprintf(w, "%-8s %16s %16s\n", "docker", mb(r.DockerEgress),
		r.DockerMeanTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-8s %16s %16s\n", "gear", mb(r.GearEgress),
		r.GearMeanTime.Round(time.Millisecond))
	fmt.Fprintf(w, "gear cuts registry egress by %.1f%% across the fleet\n",
		r.EgressSaving()*100)
}
