(* Shared plumbing for the benchmark workloads: run configuration,
   sample buffers and percentiles, process and directory facts, and
   registry counter deltas. *)

module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics

let now = Unix.gettimeofday

type size =
  | Full
  | Tiny  (** Seconds-long inputs for the self-test. *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  work : string;  (** Scratch directory inside the checkout, removed at exit. *)
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;  (** Exceptions plus answers that disagree with the reference. *)
  metrics : metric list;
      (** End-to-end metrics untraced, per-layer metrics traced. *)
}

(* ----------------------------- Samples ----------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let sum t = Array.fold_left ( +. ) 0.0 (to_array t)

  let percentile t p =
    if t.n = 0 then 0.0 else Crimson_util.Stats.percentile (to_array t) p

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n
  let append t other = Array.iter (add t) (to_array other)
end

let ms_since t0 = 1000.0 *. (now () -. t0)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let median xs =
  match xs with
  | [] -> 0.0
  | _ -> Crimson_util.Stats.median (Array.of_list xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let per_op total ops = if ops = 0 then 0.0 else float_of_int total /. float_of_int ops

(* ---------------------------- Host speed ---------------------------- *)

(* The host's speed drifts by up to a half, over seconds to minutes:
   other tenants share its cores, and its two vCPUs slow each other
   down when both are busy. A fixed kernel, timed between ops (around
   each set-up part, and from a domain of its own for a server under
   load), measures the speed the ops saw. An op's time scaled by
   [reference_kernel_ms / kernel time] is what it would have taken at
   the reference speed; a change to the code under test moves it as
   much as the raw time, a change of host speed does not. Workloads
   print the raw figures beside the scaled ones in the JSON result. *)
module Host = struct
  (* The reference speed: a round figure a little below the kernel's
     1.2-1.5 ms on the 2-core x86-64 host the bounds were set on. *)
  let reference_kernel_ms = 1.0

  (* Sorting a fixed array in place: no allocation, so the program's
     heap and GC cannot change what the kernel costs. *)
  let src = Array.init 4096 (fun i -> (i * 40_503) land 0xFFFF)
  let work = Array.make (Array.length src) 0

  let kernel () =
    Array.blit src 0 work 0 (Array.length src);
    Array.sort Int.compare work;
    work.(Array.length work / 2)

  let time_kernel () =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    ms_since t0

  (* Kernel timings, each with the time it was taken. *)
  type probe = { at : Samples.t; ms : Samples.t }

  let probe () = { at = Samples.create (); ms = Samples.create () }

  let sample p =
    let ms = time_kernel () in
    Samples.add p.at (now ());
    Samples.add p.ms ms

  (* The scale factor at each of the times [ts]: the reference over the
     median of the [w] kernel timings nearest in time. *)
  let factors ?(w = 9) p ts =
    let kt = Samples.to_array p.at and kms = Samples.to_array p.ms in
    let n = Array.length kt in
    if n = 0 then invalid_arg "Host.factors: no kernel timings";
    Array.map
      (fun t ->
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if kt.(mid) < t then lo := mid + 1 else hi := mid
        done;
        let start = max 0 (min (n - w) (!lo - (w / 2))) in
        reference_kernel_ms /. Crimson_util.Stats.median (Array.sub kms start (min n (start + w) - start)))
      ts

  (* Op times [ms] that ended at times [at], scaled. *)
  let scale p ~ms ~at =
    let out = Samples.create () in
    Array.iter2
      (fun ms f -> Samples.add out (ms *. f))
      (Samples.to_array ms)
      (factors p (Samples.to_array at));
    out

  let probe_every = 0.05

  (* Run [f] while another domain times the kernel every [probe_every]
     seconds, for work that cannot pause for it (a server in another
     process under closed-loop load); return [f]'s result and the
     timings. *)
  let probing f =
    let p = probe () in
    let on = Atomic.make true in
    let d =
      Domain.spawn (fun () ->
          while Atomic.get on do
            sample p;
            Unix.sleepf probe_every
          done)
    in
    let r =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set on false;
          Domain.join d)
        f
    in
    (r, p)

  (* The seconds from [t0] to [t1], at the reference speed. *)
  let scaled_s p (t0, t1) =
    let n = max 1 (int_of_float ((t1 -. t0) /. probe_every)) in
    let slice = (t1 -. t0) /. float_of_int n in
    slice
    *. Array.fold_left ( +. ) 0.0
         (factors p (Array.init n (fun k -> t0 +. ((float_of_int k +. 0.5) *. slice))))

  (* The median of five kernel timings in a row. *)
  let kernel_ms () = Crimson_util.Stats.median (Array.init 5 (fun _ -> time_kernel ()))

  (* Run [f], one stretch of work that cannot pause for the kernel (a
     load, a boot), between two kernel medians; return its result and
     its seconds at the reference speed. *)
  let timed_scaled f =
    let k0 = kernel_ms () in
    let t0 = now () in
    let r = f () in
    let s = now () -. t0 in
    (r, s *. reference_kernel_ms /. ((k0 +. kernel_ms ()) /. 2.0))
end

(* ----------------------------- Output ------------------------------ *)

(* Context lines: the host and input facts a reader needs to judge the
   numbers ("larger than cache", "fits") from the output alone. *)
let context fmt = Printf.ksprintf (fun s -> Printf.printf "# %s\n%!" s) fmt

(* One number under its name and unit. *)
let named name unit_ value = Printf.printf "%-40s %16.4f %s\n%!" name value unit_

(* --------------------------- Process facts -------------------------- *)

let nproc () = Domain.recommended_domain_count ()

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* ---------------------------- Directories --------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* (file name, bytes) of every regular file in a repository directory. *)
let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         match Unix.stat (Filename.concat dir f) with
         | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some (f, st_size)
         | _ -> None)

let dir_bytes dir = List.fold_left (fun acc (_, b) -> acc + b) 0 (dir_files dir)

(* The files a repository directory holds (see Crimson_storage.Database:
   one heap file per table, one file per index, the catalog and the
   database WAL). Each gets its own bytes-per-node metric; files this
   list does not know fold into "other". *)
let repo_files =
  [
    "catalog.crim";
    "crimson.wal";
    "trees.heap";
    "trees.by_id.idx";
    "trees.by_name.idx";
    "nodes.heap";
    "nodes.by_node.idx";
    "nodes.by_name.idx";
    "nodes.by_parent.idx";
    "layers.heap";
    "layers.by_node.idx";
    "subtrees.heap";
    "subtrees.by_sub.idx";
    "leaves.heap";
    "leaves.by_ord.idx";
    "species.heap";
    "species.by_chunk.idx";
    "summaries.heap";
    "summaries.by_sub.idx";
    "collections.heap";
    "collections.by_id.idx";
    "collections.by_name.idx";
    "bips.heap";
    "bips.by_id.idx";
    "bips.by_bitmap.idx";
    "members.heap";
    "members.by_id.idx";
    "members.by_name.idx";
    "queries.heap";
    "queries.by_id.idx";
  ]

let file_metrics ~files ~nodes =
  let per bytes = float_of_int bytes /. float_of_int (max 1 nodes) in
  let known =
    List.map
      (fun f ->
        metric
          ("storage.file_bytes_per_node." ^ f)
          "B"
          (per (Option.value ~default:0 (List.assoc_opt f files))))
      repo_files
  in
  let other =
    List.fold_left
      (fun acc (f, b) -> if List.mem f repo_files then acc else acc + b)
      0 files
  in
  known @ [ metric "storage.file_bytes_per_node.other" "B" (per other) ]

(* ----------------------------- Counters ----------------------------- *)

(* Registry counters, read from outside the layers that bump them. *)
let layer_counters =
  [
    "core.node_cache.hit";
    "core.node_cache.miss";
    "storage.pager.hit";
    "storage.pager.miss";
    "storage.pager.eviction";
    "storage.pager.write";
    "storage.btree.find";
    "storage.btree.node_read";
    "storage.btree.split";
    "storage.wal.fsync";
    "storage.wal.pages";
    "core.summary.hit";
    "core.summary.miss";
    "coll.dict.hits";
    "coll.dict.inserts";
    "gateway.requests";
    "gateway.not_modified";
    "server.requests";
  ]

(* Counter deltas plus allocation, accumulated over the timed ops only. *)
module Tally = struct
  type t = {
    counts : (string, int) Hashtbl.t;
    mutable minor : float;
    mutable major : float;
  }

  let create () = { counts = Hashtbl.create 32; minor = 0.0; major = 0.0 }
  let get t n = Option.value ~default:0 (Hashtbl.find_opt t.counts n)
  let add t n d = Hashtbl.replace t.counts n (get t n + d)

  let snapshot () =
    let minor, _promoted, major = Gc.counters () in
    (List.map (fun n -> (n, Metrics.counter_value n)) layer_counters, minor, major)

  let add_delta t (c0, mi0, ma0) (c1, mi1, ma1) =
    List.iter2 (fun (n, a) (_, b) -> add t n (b - a)) c0 c1;
    t.minor <- t.minor +. (mi1 -. mi0);
    t.major <- t.major +. (ma1 -. ma0)

  (* Run [f], charging its counter deltas to [t]. *)
  let around t f =
    let s0 = snapshot () in
    Fun.protect ~finally:(fun () -> add_delta t s0 (snapshot ())) f
end

(* The counter-derived per-layer metrics every workload reports; [ops]
   counts the workload's unit of work (replicate, request or step). *)
let counter_metrics get ~ops =
  let hit_ratio h m = ratio (get h) (get h + get m) in
  let per n = per_op (get n) ops in
  [
    metric "core.node_cache.hit_ratio" "ratio"
      (hit_ratio "core.node_cache.hit" "core.node_cache.miss");
    metric "core.node_cache.miss_per_op" "count" (per "core.node_cache.miss");
    metric "storage.pager.hit_ratio" "ratio" (hit_ratio "storage.pager.hit" "storage.pager.miss");
    metric "storage.pager.miss_per_op" "count" (per "storage.pager.miss");
    metric "storage.pager.eviction_per_op" "count" (per "storage.pager.eviction");
    metric "storage.pager.write_per_op" "count" (per "storage.pager.write");
    metric "storage.btree.find_per_op" "count" (per "storage.btree.find");
    metric "storage.btree.node_read_per_op" "count" (per "storage.btree.node_read");
    metric "storage.btree.split_per_op" "count" (per "storage.btree.split");
    metric "storage.wal.fsync_per_op" "count" (per "storage.wal.fsync");
    metric "storage.wal.pages_per_op" "count" (per "storage.wal.pages");
    metric "core.summary.hit_ratio" "ratio" (hit_ratio "core.summary.hit" "core.summary.miss");
    metric "coll.dict.hit_ratio" "ratio" (hit_ratio "coll.dict.hits" "coll.dict.inserts");
    metric "gateway.not_modified_ratio" "ratio"
      (ratio (get "gateway.not_modified") (get "gateway.requests"));
  ]

(* Every ratio above, printed with its base. *)
let print_counter_bases get ~ops ~op_name =
  let base label h m = context "%s: %d hits of %d lookups" label (get h) (get h + get m) in
  context "counter base: %d %s" ops op_name;
  base "core.node_cache" "core.node_cache.hit" "core.node_cache.miss";
  base "storage.pager" "storage.pager.hit" "storage.pager.miss";
  base "core.summary" "core.summary.hit" "core.summary.miss";
  base "coll.dict" "coll.dict.hits" "coll.dict.inserts";
  context "gateway: %d not-modified of %d requests" (get "gateway.not_modified")
    (get "gateway.requests")

let runtime_metrics ~minor ~major ~ops =
  let per w = if ops = 0 then 0.0 else w /. float_of_int ops in
  [
    metric "runtime.minor_words_per_op" "words" (per minor);
    metric "runtime.major_words_per_op" "words" (per major);
  ]
