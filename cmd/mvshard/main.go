// Command mvshard runs one shard worker for the sharded scatter-gather
// serving layer: a net/rpc server owning a contiguous range of the hash
// partitions, holding staged epoch states and answering scatter requests
// from a coordinator (mvserve -shards N -shard-addrs ...). With -dir the
// worker appends every staged epoch to a durable stage log before
// acknowledging, so a killed worker restarted on the same directory rejoins
// at the epoch it last staged — the property the two-phase install relies
// on to never expose a partial epoch.
//
// Usage:
//
//	mvshard -shard 0 -shards 2 -partitions 8 -dir /tmp/shard0 -addr 127.0.0.1:7070 &
//	mvshard -shard 1 -shards 2 -partitions 8 -dir /tmp/shard1 -addr 127.0.0.1:7071 &
//	mvserve -shards 2 -partitions 8 -shard-addrs 127.0.0.1:7070,127.0.0.1:7071
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/shard"
)

func main() {
	idx := flag.Int("shard", 0, "this worker's shard index in [0, shards)")
	shards := flag.Int("shards", 1, "total shards in the fleet")
	partitions := flag.Int("partitions", 0, "hash partitions sharded across the fleet (0 = 2*shards, at least 4)")
	dir := flag.String("dir", "", "stage-log directory for durable epochs (empty = volatile)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	flag.Parse()

	if *partitions == 0 {
		*partitions = shard.DefaultPartitions(*shards)
	}
	asg := shard.Assignment{Partitions: *partitions, Shards: *shards}.Norm()
	if *idx < 0 || *idx >= asg.Shards {
		fmt.Fprintf(os.Stderr, "mvshard: shard %d out of range [0, %d)\n", *idx, asg.Shards)
		os.Exit(2)
	}
	w, err := shard.NewWorker(*idx, asg, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvshard: %v\n", err)
		os.Exit(1)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvshard: %v\n", err)
		os.Exit(1)
	}
	h := w.Hello()
	fmt.Printf("mvshard: shard %d/%d (partitions %d, staged epoch %d) listening on %s\n",
		h.Shard, h.Shards, h.Partitions, h.Staged, l.Addr())
	if err := shard.Serve(l, w); err != nil {
		fmt.Fprintf(os.Stderr, "mvshard: %v\n", err)
		os.Exit(1)
	}
}
