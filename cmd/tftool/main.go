// Command tftool inspects and transforms the artifacts the runtime
// produces: checkpoint files (§4.3), serialized graphs (§3.3), and frozen
// serving models.
//
//	tftool ckpt <file>            # list tensors in a checkpoint
//	tftool ckpt <file> <tensor>   # dump one tensor
//	tftool graph <file>           # summarize a serialized graph
//	tftool ops                    # list the registered operation set (§5)
//	tftool freeze ...             # freeze graph+checkpoint into a serving model
//
// freeze combines a serialized training graph with a checkpoint into a
// versioned model directory cmd/tfserve can serve, without needing the
// training program:
//
//	tftool freeze -graph g.bin -ckpt model-120 \
//	    -input image=x:0 -output logits=dense/y:0 \
//	    -out ./models -name mnist -version 2 -batch
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	_ "repro/internal/ops"
	"repro/internal/serving"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ckpt":
		if len(os.Args) < 3 {
			usage()
		}
		ckpt(os.Args[2], os.Args[3:])
	case "graph":
		if len(os.Args) != 3 {
			usage()
		}
		graphInfo(os.Args[2])
	case "ops":
		for _, op := range graph.RegisteredOps() {
			fmt.Println(op)
		}
	case "freeze":
		freeze(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tftool ckpt <file> [tensor] | tftool graph <file> | tftool ops | tftool freeze -h")
	os.Exit(2)
}

// sliceFlag accumulates repeated -input/-output flags.
type sliceFlag []string

func (s *sliceFlag) String() string { return strings.Join(*s, ",") }
func (s *sliceFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func freeze(args []string) {
	fs := flag.NewFlagSet("freeze", flag.ExitOnError)
	graphPath := fs.String("graph", "", "serialized training graph (graph.Marshal output)")
	ckptPath := fs.String("ckpt", "", "checkpoint file holding the trained variables")
	out := fs.String("out", "", "serving model root directory")
	name := fs.String("name", "", "model name under the root")
	version := fs.Int64("version", 1, "model version")
	batch := fs.Bool("batch", false, "relax input dim 0 to -1 and mark the signature batchable")
	sigName := fs.String("signature", "predict", "signature name")
	var inputs, outputs sliceFlag
	fs.Var(&inputs, "input", "signature input alias=node:idx (repeatable)")
	fs.Var(&outputs, "output", "signature output alias=node:idx (repeatable)")
	_ = fs.Parse(args)
	if *graphPath == "" || *ckptPath == "" || *out == "" || *name == "" || len(inputs) == 0 || len(outputs) == 0 {
		log.Fatal("tftool freeze: -graph, -ckpt, -out, -name, -input and -output are all required")
	}

	data, err := os.ReadFile(*graphPath)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}
	g, err := graph.Unmarshal(data)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}
	values, err := checkpoint.Read(*ckptPath)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}

	sig := serving.Signature{Name: *sigName, Batchable: *batch}
	// spec reads one "alias=node:idx" entry; without "alias=" the node's
	// name is the alias.
	spec := func(entry string) serving.TensorSpec {
		alias, ref, named := strings.Cut(entry, "=")
		if !named {
			ref, alias = entry, entry
			if i := strings.LastIndexByte(entry, ':'); i >= 0 {
				alias = entry[:i]
			}
		}
		if alias == "" {
			log.Fatalf("tftool: malformed signature entry %q (want alias=node:idx)", entry)
		}
		return serving.TensorSpec{Alias: alias, Ref: ref}
	}
	for _, in := range inputs {
		sig.Inputs = append(sig.Inputs, spec(in))
	}
	for _, o := range outputs {
		sig.Outputs = append(sig.Outputs, spec(o))
	}
	frozen, sig, err := serving.Freeze(g, values, sig, true)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}
	if err := serving.WriteModel(*out, *name, *version, frozen, sig); err != nil {
		log.Fatalf("tftool: %v", err)
	}
	fmt.Printf("frozen model written: %s/%s/%d (%d nodes)\n", *out, *name, *version, frozen.NumNodes())
}

func ckpt(path string, rest []string) {
	tensors, err := checkpoint.Read(path)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}
	if len(rest) == 1 {
		t, ok := tensors[rest[0]]
		if !ok {
			log.Fatalf("tftool: %s has no tensor %q", path, rest[0])
		}
		fmt.Println(t)
		return
	}
	names := make([]string, 0, len(tensors))
	for n := range tensors {
		names = append(names, n)
	}
	sort.Strings(names)
	var total int
	for _, n := range names {
		t := tensors[n]
		fmt.Printf("%-40s %-8v %-12v %8d elements\n", n, t.DType(), t.Shape(), t.NumElements())
		total += t.ByteSize()
	}
	fmt.Printf("%d tensors, %d bytes of parameter data\n", len(names), total)
}

func graphInfo(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}
	g, err := graph.Unmarshal(data)
	if err != nil {
		log.Fatalf("tftool: %v", err)
	}
	byOp := map[string]int{}
	byDevice := map[string]int{}
	for _, n := range g.Nodes() {
		byOp[n.Op()]++
		dev := n.Device()
		if dev == "" {
			dev = "(unconstrained)"
		}
		byDevice[dev]++
	}
	fmt.Printf("%d nodes\n\nby op:\n", g.NumNodes())
	printCounts(byOp)
	fmt.Println("\nby device:")
	printCounts(byDevice)
}

func printCounts(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Printf("  %6d  %s\n", m[k], k)
	}
}
