package main

import (
	"math/rand/v2"
	"sort"
	"strconv"

	"dlrmperf"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/serve"
)

// The generators turn the benchmark seed into the inputs a workload
// sends. The program under test sees only their output.

// streamRand returns a PCG stream of seed; distinct streams of one seed
// are independent.
func streamRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// calibInputs is the calibrate workload's input: the engine seed every
// cold start calibrates from, the device cycle, and the one scenario
// request each cold start issues.
type calibInputs struct {
	EngineSeed uint64
	Devices    []string
	Request    dlrmperf.PredictRequest
}

func genCalibrate(seed uint64) calibInputs {
	r := streamRand(seed, 1)
	return calibInputs{
		// Never 0: the facade maps seed 0 to its default.
		EngineSeed: 1 + r.Uint64()%(1<<31),
		Devices:    []string{hw.V100, hw.TITANXp, hw.P100},
		Request:    dlrmperf.PredictRequest{Scenario: "dlrm-default", Batch: 2048},
	}
}

// hotInputs is the serve-hot workload's input: a fixed key set that
// fits in the result cache, and one Zipf-distributed request stream
// per client over it.
type hotInputs struct {
	EngineSeed uint64
	Keys       []serve.Request
	seed       uint64
}

var (
	hotScenarios = []string{"dlrm-default", "dlrm-ddp", "dlrm-criteo", "dlrm-uniform-2gpu", "dlrm-criteo-4gpu"}
	hotDevices   = []string{hw.V100, hw.TITANXp, hw.P100}
	hotBatches   = []int64{512, 1024, 2048, 4096}
)

// hotZipfS is the skew of the request streams (math/rand/v2 needs s > 1).
const hotZipfS = 1.1

func genServeHot(seed uint64) hotInputs {
	r := streamRand(seed, 2)
	var keys []serve.Request
	for _, sc := range hotScenarios {
		for _, dev := range hotDevices {
			for _, b := range hotBatches {
				keys = append(keys, serve.Request{Scenario: sc, Device: dev, Batch: b})
			}
		}
	}
	// The seed decides which keys are hot: rank i of the Zipf draws maps
	// to keys[perm[i]].
	perm := r.Perm(len(keys))
	shuffled := make([]serve.Request, len(keys))
	for i, p := range perm {
		shuffled[i] = keys[p]
	}
	return hotInputs{EngineSeed: 1 + r.Uint64()%(1<<31), Keys: shuffled, seed: seed}
}

// zipfStream is one client's request stream: indices into Keys.
type zipfStream struct{ z *rand.Zipf }

// streams returns the request streams of clients clients, one each.
func (in hotInputs) streams(clients int) []zipfStream {
	out := make([]zipfStream, clients)
	for i := range out {
		out[i] = in.stream(i)
	}
	return out
}

func (in hotInputs) stream(client int) zipfStream {
	r := streamRand(in.seed, 1000+uint64(client))
	return zipfStream{z: rand.NewZipf(r, hotZipfS, 1, uint64(len(in.Keys)-1))}
}

func (s zipfStream) next() int { return int(s.z.Uint64()) }

// tenant names client i's tenant: one tenant per client.
func tenant(i int) string { return "client-" + strconv.Itoa(i) }

// sweepInputs is the sweep-cold workload's input: the explore grid.
type sweepInputs struct {
	EngineSeed uint64
	Grid       explore.Grid
}

var (
	sweepScenarios = []string{"dlrm-default", "dlrm-ddp", "dlrm-criteo", "dlrm-uniform"}
	sweepDevices   = []string{hw.V100, hw.P100}
	sweepBatchPool = []int64{256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192}
)

// sweepBatches is the number of seed-drawn batch sizes on the grid.
const sweepBatches = 5

func genSweepCold(seed uint64) sweepInputs {
	r := streamRand(seed, 3)
	perm := r.Perm(len(sweepBatchPool))
	batches := make([]int64, sweepBatches)
	for i := range batches {
		batches[i] = sweepBatchPool[perm[i]]
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i] < batches[j] })
	return sweepInputs{
		EngineSeed: 1 + r.Uint64()%(1<<31),
		Grid: explore.Grid{
			Scenarios: sweepScenarios,
			Devices:   sweepDevices,
			GPUs:      []int{1, 2, 4},
			Comms:     []string{"", "nvlink", "pcie"},
			Batches:   batches,
			Shared:    []bool{false, true},
			Top:       16,
		},
	}
}
