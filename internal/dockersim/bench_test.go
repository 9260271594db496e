package dockersim

import "testing"

// BenchmarkDeployGearWarm deploys and tears down one image on a
// long-lived daemon whose L1 cache already holds the image's access set,
// as loadbench's deploy_warm does over HTTP: each deploy pulls the index
// again and every read hits the cache.
func BenchmarkDeployGearWarm(b *testing.B) {
	r := buildRig(b, "mysql", 1)
	d := r.newDaemon(b, 904)
	access := r.access(b, 0)
	deploy := func() {
		dep, err := d.DeployGear("gear/mysql", "v01", access, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.Destroy(); err != nil {
			b.Fatal(err)
		}
		if err := d.GearStore().RemoveIndex(dep.Ref); err != nil {
			b.Fatal(err)
		}
		d.ClearLayerCache()
	}
	deploy() // fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deploy()
	}
}
