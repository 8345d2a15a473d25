package main

// benchmarkFile is BENCHMARK.json: the contract the driver reads. The file
// at the root of the repo is `go run . -describe`, so the lists in
// metrics.go and workloads.go are its only source; a test keeps it current.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []endToEndEntry `json:"end_to_end"`
	PerLayer   []perLayerEntry `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func describe() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		f.PerLayer = append(f.PerLayer, perLayerEntry{d.Name, d.Unit, d.Better})
	}
	return f
}
