// Benchmarks: one per table/figure of the paper (running the experiment
// harness end to end at the Quick scale), plus ablation benches for the
// design choices DESIGN.md §5 calls out. cmd/benchreport runs the same
// experiments at the calibrated full scale and prints the paper-style
// reports; these benches give repeatable relative timings.
package gear_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	gear "github.com/gear-image/gear"
)

// benchConfig is the reduced corpus used for benchmark runs.
func benchConfig() gear.ExperimentConfig {
	cfg := gear.QuickExperimentConfig()
	cfg.VersionsPerSeries = 3
	cfg.SeriesPerCategory = 1
	cfg.Scale = 0.2
	return cfg
}

// benchExperiment runs one experiment end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gear.RunExperiment(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Dedup(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig2Redundancy(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig6Conversion(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7Storage(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8Bandwidth(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9DeployTime(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10Versions(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Services(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkExtLoadFleet(b *testing.B)   { benchExperiment(b, "extload") }
func BenchmarkExtP2P(b *testing.B)         { benchExperiment(b, "extp2p") }
func BenchmarkExtPrefetch(b *testing.B)    { benchExperiment(b, "extprefetch") }

// --- Core-path micro benchmarks ---

// benchImage builds a moderately sized single-layer image once.
func benchImage(b *testing.B, files, fileSize int) *gear.Image {
	b.Helper()
	fs := gear.NewFS()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < files; i++ {
		data := make([]byte, fileSize)
		rng.Read(data)
		if err := fs.WriteFile(fmt.Sprintf("/f%04d", i), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	img, err := gear.SingleLayerImage("bench", "v1", fs, gear.ImageConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkConvert measures Docker-to-Gear conversion of a 100-file
// image (the Fig 6 unit operation).
func BenchmarkConvert(b *testing.B) {
	img := benchImage(b, 100, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv, err := gear.NewConverter(gear.ConverterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conv.Convert(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertChunked is the big-file extension ablation: same bytes
// in one large file, chunked vs whole.
func BenchmarkConvertChunked(b *testing.B) {
	img := benchImage(b, 4, 128<<10)
	for _, chunk := range []int64{0, 16 << 10} {
		name := "whole"
		if chunk > 0 {
			name = "chunk16k"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conv, err := gear.NewConverter(gear.ConverterOptions{Chunking: gear.FixedChunks(chunk)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := conv.Convert(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeployGear measures a full lazy deployment (index pull + all
// faults) against in-process registries.
func BenchmarkDeployGear(b *testing.B) {
	img := benchImage(b, 100, 4096)
	conv, err := gear.NewConverter(gear.ConverterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		b.Fatal(err)
	}
	docker := gear.NewRegistry()
	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	if _, _, err := gear.Publish(res, docker, files); err != nil {
		b.Fatal(err)
	}
	access := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		access = append(access, fmt.Sprintf("/f%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		daemon, err := gear.NewDaemon(docker, files, gear.DaemonOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := daemon.DeployGear("bench", "v1", access, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployDocker is the eager-pull baseline for BenchmarkDeployGear.
func BenchmarkDeployDocker(b *testing.B) {
	img := benchImage(b, 100, 4096)
	docker := gear.NewRegistry()
	if _, err := gear.PushImage(docker, img); err != nil {
		b.Fatal(err)
	}
	files := gear.NewFileStore(gear.FileStoreOptions{})
	access := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		access = append(access, fmt.Sprintf("/f%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		daemon, err := gear.NewDaemon(docker, files, gear.DaemonOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := daemon.DeployDocker("bench", "v1", access, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachePolicies is the FIFO-vs-LRU eviction ablation on the
// level-1 shared cache (§III-D1 leaves the policy to the operator).
func BenchmarkCachePolicies(b *testing.B) {
	payload := bytes.Repeat([]byte{0xaa}, 2048)
	for _, policy := range []gear.CachePolicy{gear.CacheFIFO, gear.CacheLRU} {
		b.Run(policy.String(), func(b *testing.B) {
			store, err := gear.NewStore(gear.StoreOptions{
				CacheCapacity: 64 << 10,
				CachePolicy:   policy,
				Remote:        preloadedFileStore(b, payload, 256),
			})
			if err != nil {
				b.Fatal(err)
			}
			fps := make([]gear.Fingerprint, 256)
			for i := range fps {
				fps[i] = gear.FingerprintBytes(append([]byte{byte(i), byte(i >> 8)}, payload...))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Zipf-ish skew: low indices dominate.
				idx := (i * 7) % 64
				if i%5 == 0 {
					idx = (i * 13) % 256
				}
				if _, err := store.Resolve("none", "/nope", fps[idx], int64(len(payload)+2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// preloadedFileStore uploads n distinct objects derived from payload.
func preloadedFileStore(b *testing.B, payload []byte, n int) *gear.FileStore {
	b.Helper()
	fsStore := gear.NewFileStore(gear.FileStoreOptions{})
	for i := 0; i < n; i++ {
		data := append([]byte{byte(i), byte(i >> 8)}, payload...)
		if err := fsStore.Upload(gear.FingerprintBytes(data), data); err != nil {
			b.Fatal(err)
		}
	}
	return fsStore
}

// BenchmarkFileStoreCompression is the storage-compression ablation
// (§III-C: "Gear files can be further compressed").
func BenchmarkFileStoreCompression(b *testing.B) {
	data := append(bytes.Repeat([]byte("text configuration "), 128),
		make([]byte, 2048)...)
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "gzip"
		}
		b.Run(name, func(b *testing.B) {
			fsStore := gear.NewFileStore(gear.FileStoreOptions{Compress: compress})
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				obj := append(data, byte(i), byte(i>>8), byte(i>>16))
				fp := gear.FingerprintBytes(obj)
				if err := fsStore.Upload(fp, obj); err != nil {
					b.Fatal(err)
				}
				if _, _, err := fsStore.Download(fp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexEncode measures Gear index serialization (the object the
// whole deployment path waits on).
func BenchmarkIndexEncode(b *testing.B) {
	img := benchImage(b, 500, 512)
	root, err := img.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	ix, _, err := gear.BuildIndex("bench", "v1", gear.ImageConfig{}, root)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.ToImage(); err != nil {
			b.Fatal(err)
		}
	}
}
