(* The open-loop generator's old name, kept only because the benchmark
   sources under bench/perf name it; it goes with the next change to the
   benchmark. New code names {!Loadgen}. *)
include Loadgen
