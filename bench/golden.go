package main

// goldenLoss is each training workload's loss at step lossCheckStep with
// -seed 1 (goldenSeed), recorded on the commit that defined the benchmark.
// A change that leaves the arithmetic alone reproduces it to goldenTol; a
// change that alters precision or reduction order on purpose re-records it
// and says so.
var goldenLoss = map[string]float64{
	"mlp_local":     1.85299563,
	"while_local":   0.0281028152,
	"ps_dense_tcp":  0.0382350758,
	"ps_sparse_tcp": 0.168424621,
}
