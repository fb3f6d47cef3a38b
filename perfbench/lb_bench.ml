(* The LegoDB benchmark: one run of one workload.

     lb_bench --workload design|serve_hot|serve_churn --seed N
              --seconds S --trace 0|1

   design runs repeated complete searches in-process; the two serve
   workloads start the query server in a child process of this same
   executable (--serve-child) and drive it over TCP from a select-loop
   load generator.  Every run checks its answers.  With --trace 1 the
   untraced run is followed by an in-process replay of the same inputs
   that times the calls into each layer.  The last line of stdout is
   the result object; README.md defines every metric. *)

open Legodb
module Bstat = Perfbench.Bstat
module Inputs = Perfbench.Inputs

(* nanosecond monotonic time, in seconds: loopback latencies are tens
   of microseconds, below what gettimeofday resolves well *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let e2e = ref []
let layers = ref []
let add r name unit v = r := (name, v, unit) :: !r
let attempted = ref 0
let failed = ref 0

(* one checked operation; a failed check is reported and counted *)
let check ok fmt =
  Printf.ksprintf
    (fun m ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("perfbench: check failed: " ^ m)
      end)
    fmt

let say fmt = Printf.printf (fmt ^^ "\n%!")

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* accumulate the wall time of [f] into [acc] when tracing *)
let timed on acc f =
  if not on then f ()
  else
    let t0 = now () in
    let r = f () in
    acc := !acc +. (now () -. t0);
    r

let ms s = s *. 1000.

(* the within-run spread printed beside a median *)
let spread xs =
  if Array.length xs < 2 then "no spread"
  else Printf.sprintf "iqr/median %.3f" (Bstat.iqr_share xs)
let us s = s *. 1e6
let per a b = if b = 0 then 0. else a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Environment and files                                               *)
(* ------------------------------------------------------------------ *)

(* a fixed allocation-free CPU loop: the host-speed probe *)
let probe () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 100_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

let commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "unavailable"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* peak resident set (VmHWM) of a process, in MB *)
let peak_rss_mb pid =
  let status = read_file ("/proc/" ^ pid ^ "/status") in
  let lines = String.split_on_char '\n' status in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith "perfbench: no VmHWM in /proc status"

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* the corpus is generated in a child process, so the generator's own
   peak memory never counts against a workload's VmHWM *)
let write_corpus ~seed path =
  let seed = string_of_int seed in
  let args =
    [| Sys.executable_name; "--write-corpus"; path; "--seed"; seed |]
  in
  let pid =
    Unix.create_process args.(0) args Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: corpus generation failed"

(* ------------------------------------------------------------------ *)
(* design                                                              *)
(* ------------------------------------------------------------------ *)

let setups = 3
let design_jobs = 2
let design_workload = Imdb.Workloads.mixed 0.5

(* the [legodb design --sample] front half: parse, collect, annotate *)
let design_setup path =
  let doc = Xml_parse.parse_file path in
  Annotate.schema (Collector.collect doc) Imdb.Schema.schema

let greedy ?(jobs = design_jobs) ann =
  Search.greedy_si ~jobs ~workload:design_workload ann

let beam ?(jobs = design_jobs) ann =
  Search.beam ~jobs ~workload:design_workload (Init.all_inlined ann)

type design_obs = {
  d_ann : Xschema.t;
  d_first : float;
  d_greedy : float list;
  d_beam : float list;
  d_designs : int;
  d_wall : float;
  d_evals : int;
  d_hits : int;
  d_misses : int;
  d_seam : Search.seam_stats list;
  d_ref_greedy : Search.result;
}

let same_design (a : Search.result) (b : Search.result) =
  Float.equal a.Search.cost b.Search.cost
  && Xschema.to_string a.Search.schema = Xschema.to_string b.Search.schema

let run_design ~dir ~seed ~seconds =
  let path = Filename.concat dir "sample.xml" in
  write_corpus ~seed path;
  let runs = List.init setups (fun _ -> time (fun () -> design_setup path)) in
  let ann = fst (List.hd runs) in
  add e2e "setup_s" "s" (Bstat.median (Array.of_list (List.map snd runs)));
  (* the first design pays what a one-shot [legodb design] pays (pool
     start-up, cold code paths); it is reported, not gated *)
  let g0, first = time (fun () -> greedy ann) in
  let b0 = beam ann in
  let evals = ref 0 and hits = ref 0 and misses = ref 0 and seams = ref [] in
  let one name reference f =
    Search.seam_reset ();
    let r, dt = time f in
    let e = r.Search.engine in
    evals := !evals + e.Cost_engine.evaluations;
    hits := !hits + e.Cost_engine.hits;
    misses := !misses + e.Cost_engine.misses;
    seams := Search.seam_stats () :: !seams;
    check (same_design r reference) "repeated %s design differs" name;
    dt
  in
  let gs = ref [] and bs = ref [] in
  let t0 = now () in
  while now () -. t0 < float_of_int seconds || !bs = [] do
    gs := one "greedy_si" g0 (fun () -> greedy ann) :: !gs;
    bs := one "beam" b0 (fun () -> beam ann) :: !bs
  done;
  let wall = now () -. t0 in
  let g1 = greedy ~jobs:1 ann and b1 = beam ~jobs:1 ann in
  check (same_design g0 g1) "-j %d greedy_si differs from -j 1" design_jobs;
  check (same_design b0 b1) "-j %d beam differs from -j 1" design_jobs;
  {
    d_ann = ann;
    d_first = first;
    d_greedy = !gs;
    d_beam = !bs;
    d_designs = List.length !gs + List.length !bs;
    d_wall = wall;
    d_evals = !evals;
    d_hits = !hits;
    d_misses = !misses;
    d_seam = !seams;
    d_ref_greedy = g1;
  }

let report_design o =
  let g = Array.of_list o.d_greedy and b = Array.of_list o.d_beam in
  let design_s = Bstat.median g and beam_s = Bstat.median b in
  add e2e "op_p50_ms" "ms" (ms design_s);
  add e2e "ops_per_s" "1/s" (float_of_int o.d_designs /. o.d_wall);
  add e2e "peak_rss_mb" "MB" (peak_rss_mb "self");
  say "design_s %.6f s (median of %d greedy_si designs at -j %d, %s)"
    design_s (Array.length g) design_jobs (spread g);
  say "beam_s %.6f s (median of %d beam designs, %s)" beam_s (Array.length b)
    (spread b);
  add layers "e2e.design_s" "s" design_s;
  add layers "e2e.beam_s" "s" beam_s

(* The traced design replay walks the greedy_si trace: from the
   all-inlined start, each configuration's outline neighbors are
   derived, mapped, translated and costed exactly as the cost engine
   does it, call by call.  The beam trace records only improving
   levels, each a step from a different frontier member, so it cannot
   be walked this way. *)
type walk = {
  t_nb : float ref;
  t_map : float ref;
  t_tr : float ref;
  t_opt : float ref;
  configs : int ref;
  cands : int ref;
}

let walk_greedy ~on w ann (r : Search.result) =
  let { t_nb; t_map; t_tr; t_opt; configs; cands } = w in
  let cost_of schema =
    match timed on t_map (fun () -> Mapping.of_pschema schema) with
    | Error _ -> None
    | Ok m -> (
        match
          timed on t_tr (fun () ->
              List.map
                (fun (q, w) -> (Xq_translate.translate m q, w))
                design_workload)
        with
        | exception Xq_translate.Untranslatable _ -> None
        | qs ->
            timed on t_opt (fun () ->
                let cat = m.Mapping.catalog in
                Some
                  (List.fold_left
                     (fun acc (q, w) ->
                       acc +. (w *. Optimizer.query_scalar_cost cat q))
                     0. qs)))
  in
  let start = Init.all_inlined ann in
  check (cost_of start = Some (List.hd r.Search.trace).Search.cost)
    "replayed initial configuration cost differs";
  let rec go schema = function
    | [] -> ()
    | (next : Search.trace_entry option) :: rest ->
        incr configs;
        let nbs =
          timed on t_nb (fun () ->
              Space.neighbors ~kinds:[ Space.K_outline ] schema)
        in
        let best = ref None in
        List.iter
          (fun (step, s) ->
            incr cands;
            match cost_of s with
            | Some c -> (
                match !best with
                | Some (_, bc) when bc <= c -> ()
                | _ -> best := Some (step, c))
            | None -> ())
          nbs;
        (match next with
        | Some e ->
            check
              (match !best with
              | Some (_, c) -> Float.equal c e.Search.cost
              | None -> false)
              "replayed best neighbor cost differs from the search's"
        | None -> ());
        (match next with
        | Some { Search.step = Some step; _ } ->
            go (Space.apply schema step) rest
        | _ -> ())
  in
  go start (List.map Option.some (List.tl r.Search.trace) @ [ None ])

let trace_design ~dir o =
  let path = Filename.concat dir "sample.xml" in
  let doc, t_parse = time (fun () -> Xml_parse.parse_file path) in
  let _, t_stats =
    time (fun () -> Annotate.schema (Collector.collect doc) Imdb.Schema.schema)
  in
  add layers "xmldata.parse_corpus_s" "s" t_parse;
  add layers "stats.collect_s" "s" t_stats;
  (* the walk takes a fraction of a second: repeat it so timer noise
     does not dominate coverage and overhead *)
  let walks = 5 in
  let w () =
    {
      t_nb = ref 0.;
      t_map = ref 0.;
      t_tr = ref 0.;
      t_opt = ref 0.;
      configs = ref 0;
      cands = ref 0;
    }
  in
  let run ~on w =
    time (fun () ->
        for _ = 1 to walks do
          walk_greedy ~on w o.d_ann o.d_ref_greedy
        done)
  in
  let (), untraced = run ~on:false (w ()) in
  let w = w () in
  let (), traced = run ~on:true w in
  let t_nb = !(w.t_nb) and t_map = !(w.t_map) in
  let t_tr = !(w.t_tr) and t_opt = !(w.t_opt) in
  let configs = !(w.configs) and cands = !(w.cands) in
  add layers "transform.neighbors_ms" "ms" (ms (per t_nb configs));
  add layers "mapping.of_pschema_ms" "ms" (ms (per t_map cands));
  add layers "mapping.translate_workload_ms" "ms" (ms (per t_tr cands));
  add layers "optimizer.cost_ms" "ms" (ms (per t_opt cands));
  add layers "trace.coverage" "ratio"
    ((t_nb +. t_map +. t_tr +. t_opt) /. untraced);
  add layers "trace.overhead" "s" ((traced -. untraced) /. float_of_int walks);
  let n = o.d_designs in
  add layers "search.evaluations" "count" (per (float_of_int o.d_evals) n);
  add layers "search.memo_hit_ratio" "ratio"
    (per (float_of_int o.d_hits) (o.d_hits + o.d_misses));
  let seam f = per (List.fold_left (fun a s -> a +. f s) 0. o.d_seam) n in
  add layers "search.fanout_s" "s" (seam (fun s -> s.Search.s_t_fanout));
  add layers "search.merge_s" "s" (seam (fun s -> s.Search.s_t_merge));
  add layers "search.barrier_idle_s" "s"
    (seam (fun s -> s.Search.s_t_barrier_idle));
  add layers "search.first_design_s" "s" o.d_first;
  (* allocation per design, on one domain so the counters are whole *)
  let g0 = Gc.quick_stat () in
  ignore (greedy ~jobs:1 o.d_ann);
  ignore (beam ~jobs:1 o.d_ann);
  let g1 = Gc.quick_stat () in
  add layers "gc.minor_words_per_op" "words"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 2.);
  add layers "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* ------------------------------------------------------------------ *)
(* Serving: the corpus, the server process                             *)
(* ------------------------------------------------------------------ *)

(* memory-calibrated weights (serve_perf's): with the paper's disk seek
   weight an index probe loses to scanning a 20k-row table *)
let mem_params =
  { Cost.default_params with Cost.seek_weight = 0.1; read_weight = 0.1 }

(* all-inlined mapping plus equality indexes on the template columns *)
let indexed_mapping ps =
  let base =
    match Mapping.of_pschema ps with
    | Ok m -> m
    | Error es -> failwith (String.concat "; " es)
  in
  let reps = List.map (Xq_parse.parse ~name:"rep") Inputs.representatives in
  let eq =
    Xq_translate.equality_columns
      (List.map (Xq_translate.translate base) reps)
  in
  { base with Mapping.catalog = Rschema.add_indexes base.Mapping.catalog eq }

type store = {
  mapping : Mapping.t;
  db : Storage.t;
  t_parse : float;
  t_stats : float;
  t_shred : float;
}

let build_store text =
  let doc, t_parse = time (fun () -> Xml_parse.parse_string text) in
  let ann, t_stats =
    time (fun () -> Annotate.schema (Collector.collect doc) Imdb.Schema.schema)
  in
  let (mapping, db), t_shred =
    time (fun () ->
        let m = indexed_mapping (Init.all_inlined ann) in
        (m, Shred.shred m doc))
  in
  { mapping; db; t_parse; t_stats; t_shred }

let serve_child corpus data_dir =
  let s = build_store (read_file corpus) in
  let data_dir = if data_dir = "" then None else Some data_dir in
  let server =
    Serve.create ~jobs:1 ~params:mem_params ?data_dir s.mapping s.db
  in
  ignore
    (Net.serve
       ~on_listen:(fun p -> Printf.printf "port %d\n%!" p)
       ~port:0 server)

type child = { pid : int; out : in_channel }

let children = ref []

let stop_child c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  close_in_noerr c.out;
  children := List.filter (fun c' -> c'.pid <> c.pid) !children

let () = at_exit (fun () -> List.iter stop_child !children)

(* start a server process and wait for its first answered ping: the
   serve workloads' set-up time *)
let start_server ~corpus ?data_dir () =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "--serve-child"; corpus ]
    @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let c = { pid; out = Unix.in_channel_of_descr r } in
  children := c :: !children;
  let port =
    match input_line c.out with
    | l -> Scanf.sscanf l "port %d" Fun.id
    | exception End_of_file ->
        failwith "perfbench: the server process died during set-up"
  in
  let conn = Loadgen.connect port in
  let pong = Loadgen.rpc conn (Net.encode_request Net.Ping) in
  if not (Loadgen.is_kind pong "pong") then
    failwith "perfbench: no pong from the server";
  (c, port, conn, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Serving: the load                                                   *)
(* ------------------------------------------------------------------ *)

let depth = 16
let group_size = 64
let groups = 16
let publish_every = 4

type event = Group of int | Publish

(* what the load generator saw *)
type load = {
  q_lat : float array;  (* seconds, measured phase *)
  q_wall : float;
  q_rates : float array;  (* queries per second in each whole slice *)
  a_lat : float array;
  p_lat : float array;
  acked : int;
  samples : (int * int * string) list;  (* generation, statement, payload *)
  sent : int array;  (* statements in send order, warm-up included *)
  events : (int * event) list;  (* writer events, by statements sent before *)
  repeat_share : float;
  cpu_share : float;
}

type serve_obs = {
  load : load;
  server : Serve.stats;  (* the server's final Stats reply *)
  net : Net.net_stats;
  rss_mb : float;
  rows0 : int;
}

(* a growable array: the load generator records millions of samples *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf x = { data = Array.make 4096 x; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) x in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

let stats_of conn =
  let reply = Loadgen.rpc conn (Net.encode_request Net.Stats) in
  match Net.decode_response reply with
  | Net.Stats_reply { serve; net } -> (serve, net)
  | _ -> failwith "perfbench: unexpected reply to stats"

(* The measured phase is cut into slices of this many seconds.
   Throughput is the rate of the slice the median query completed in:
   a slice the host stalled (stolen CPU, a publish) completes few
   queries and so weighs little, where a plain median over slices
   would count it like any other. *)
let slice_s = 0.1

(* A request's tag carries its statement and the publish epoch it was
   sent in.  The epoch is even while no publish is in flight and odd
   while one is, so an answer sent and received in one even epoch [e]
   was computed on generation [e / 2]. *)
let stmt_bits = 20

(* Drive [readers] and, on serve_churn, one [writer] connection for
   [seconds].  Each reader is a closed loop that keeps [depth] queries
   in flight, topping its window up after every read; statements come
   from [draw] and [frames] are their encoded requests. *)
let drive ~seconds ~frames ~draw ~readers ~writer ~append_frames ~warm
    ~sample_every =
  let sent = buf 0 in
  let epoch = ref 0 in
  let seen = Bytes.make (Array.length frames) '\000' and repeats = ref 0 in
  let events = ref [] in
  let measuring = ref false in
  let q_lat = buf 0. and samples = ref [] and answered = ref 0 in
  let n_slices = int_of_float (float_of_int seconds /. slice_s) in
  let in_slice = Array.make n_slices 0 in
  let a_lat = buf 0. and p_lat = buf 0. and acked = ref 0 in
  let t0 = ref 0. and t_last = ref 0. in
  let top_up c next =
    let n = depth - Loadgen.outstanding c in
    if n > 0 then begin
      let at = now () in
      for _ = 1 to n do
        match next () with
        | None -> ()
        | Some i ->
            push sent i;
            if Bytes.get seen i = '\001' then incr repeats
            else Bytes.set seen i '\001';
            Loadgen.send c ~at ~tag:(i lor (!epoch lsl stmt_bits)) frames.(i)
      done;
      Loadgen.flush c
    end
  in
  let on_query at tag payload =
    let t = now () in
    let i = tag land ((1 lsl stmt_bits) - 1) and e = tag lsr stmt_bits in
    if not (Loadgen.is_kind payload "rows") then
      check false "query %d answered %S" i (Loadgen.kind payload)
    else incr attempted;
    if !measuring then begin
      push q_lat (t -. at);
      t_last := t;
      let k = int_of_float ((t -. !t0) /. slice_s) in
      if k < n_slices then in_slice.(k) <- in_slice.(k) + 1
    end;
    incr answered;
    if !answered mod sample_every = 0 && e = !epoch && e land 1 = 0 then
      samples := (e / 2, i, payload) :: !samples
  in
  (* writer state: groups are paced evenly over the run and each must
     be acknowledged (and every [publish_every]-th published) before
     the next is sent *)
  let next_group = ref 0 and w_busy = ref false and w_acks = ref 0 in
  let due k =
    !t0 +. (float_of_int (k * seconds) /. float_of_int (groups + 2))
  in
  let send_group w =
    let k = !next_group in
    incr next_group;
    w_busy := true;
    w_acks := 0;
    events := (sent.len, Group k) :: !events;
    let at = now () in
    for j = 0 to group_size - 1 do
      Loadgen.send w ~at ~tag:j append_frames.((k * group_size) + j)
    done;
    Loadgen.flush w
  in
  let on_write w at tag payload =
    let t = now () in
    if Loadgen.is_kind payload "acked" then begin
      incr attempted;
      push a_lat (t -. at);
      incr acked;
      incr w_acks;
      if !w_acks = group_size then
        if !next_group mod publish_every = 0 then begin
          events := (sent.len, Publish) :: !events;
          incr epoch;
          Loadgen.send w ~at:(now ()) ~tag:(-1)
            (Net.encode_request Net.Publish);
          Loadgen.flush w
        end
        else w_busy := false
    end
    else if Loadgen.is_kind payload "published" then begin
      incr attempted;
      push p_lat (t -. at);
      incr epoch;
      Bytes.fill seen 0 (Bytes.length seen) '\000';
      w_busy := false
    end
    else check false "append %d answered %S" tag (Loadgen.kind payload)
  in
  let conns = readers @ Option.to_list writer in
  let on_frame c at tag payload =
    match writer with
    | Some w when w == c -> on_write c at tag payload
    | _ -> on_query at tag payload
  in
  let idle () = List.for_all (fun c -> Loadgen.outstanding c = 0) readers in
  (* warm-up, unmeasured: send [warm] statements once each *)
  let rest = ref warm in
  let next_warm () =
    match !rest with
    | [] -> None
    | i :: tl ->
        rest := tl;
        Some i
  in
  List.iter (fun c -> top_up c next_warm) readers;
  while not (!rest = [] && idle ()) do
    Loadgen.pump conns on_frame;
    List.iter (fun c -> top_up c next_warm) readers
  done;
  measuring := true;
  let cpu0 = Unix.times () in
  t0 := now ();
  t_last := !t0;
  let t_end = !t0 +. float_of_int seconds in
  let next_draw () = if now () < t_end then Some (draw ()) else None in
  let writer_done () = writer = None || (!next_group = groups && not !w_busy) in
  List.iter (fun c -> top_up c next_draw) readers;
  while not (now () >= t_end && writer_done () && idle ()) do
    if now () > t_end +. 60. then
      failwith "perfbench: the server stopped answering";
    (match writer with
    | Some w
      when (not !w_busy) && !next_group < groups && now () >= due !next_group
      ->
        send_group w
    | _ -> ());
    Loadgen.pump ~timeout:0.002 conns on_frame;
    List.iter (fun c -> top_up c next_draw) readers
  done;
  let cpu1 = Unix.times () in
  let cpu =
    cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime
    +. (cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime)
  in
  {
    q_lat = contents q_lat;
    q_wall = !t_last -. !t0;
    q_rates = Array.map (fun n -> float_of_int n /. slice_s) in_slice;
    a_lat = contents a_lat;
    p_lat = contents p_lat;
    acked = !acked;
    samples = !samples;
    sent = contents sent;
    events = List.rev !events;
    repeat_share = per (float_of_int !repeats) sent.len;
    cpu_share = cpu /. (now () -. !t0);
  }

(* ------------------------------------------------------------------ *)
(* Serving: checks against the in-process server                       *)
(* ------------------------------------------------------------------ *)

let sorted_rows rows = List.sort compare rows

(* Check the sampled answers against an in-process server built like
   the child, advanced through the same publishes; on serve_churn then
   recover the killed server's directory and check that every
   acknowledged append came back. *)
let check_serve ~text ~stmts ~append_texts ~recover_dir o =
  let s = build_store text in
  let srv = Serve.create ~jobs:1 ~params:mem_params s.mapping s.db in
  let appended = ref 0 and gen = ref 0 in
  let append_upto n =
    let docs =
      Array.to_list (Array.sub append_texts !appended (n - !appended))
    in
    ignore (Serve.append_group srv (List.map Xml_parse.parse_string docs));
    appended := n
  in
  let samples = List.sort compare o.load.samples in
  List.iter
    (fun (g, i, payload) ->
      while !gen < g do
        incr gen;
        append_upto (!gen * publish_every * group_size);
        Serve.publish srv
      done;
      let q = Xq_parse.parse ~name:"check" stmts.(i) in
      let expect = (Serve.query srv q).Serve.rows in
      check
        (match Net.decode_response payload with
        | Net.Rows { rows; _ } -> sorted_rows rows = sorted_rows expect
        | _ -> false)
        "answer to statement %d (generation %d) differs from in-process \
         Serve.query"
        i g)
    samples;
  say "answers checked against in-process Serve.query: %d"
    (List.length samples);
  check (List.length samples >= 10) "only %d sampled answers could be checked"
    (List.length samples);
  Option.iter
    (fun dir ->
      let acked = o.load.acked in
      let recovered, r =
        Serve.recover ~jobs:1 ~params:mem_params ~mapping:s.mapping ~dir ()
      in
      let lost = max 0 (acked - r.Serve.r_recovered_seq) in
      attempted := !attempted + acked;
      failed := !failed + lost;
      if lost > 0 then
        prerr_endline
          (Printf.sprintf "perfbench: %d acknowledged appends lost" lost);
      append_upto acked;
      Serve.publish srv;
      Serve.publish recovered;
      let got = Storage.total_rows (Serve.snapshot recovered)
      and want = Storage.total_rows (Serve.snapshot srv) in
      check (got = want) "recovered store holds %d rows, expected %d" got want)
    recover_dir

(* ------------------------------------------------------------------ *)
(* Serving: the untraced run                                           *)
(* ------------------------------------------------------------------ *)

let run_serve ~dir ~seed ~seconds ~churn =
  let corpus = Filename.concat dir "corpus.xml" in
  write_corpus ~seed corpus;
  let text = read_file corpus in
  let doc = Xml_parse.parse_string text in
  let universe = Inputs.universe doc in
  let stmts = if churn then universe else Inputs.hot_set ~seed universe in
  let frames = Array.map (fun q -> Net.encode_request (Net.Query q)) stmts in
  let append_texts =
    if churn then Array.init (groups * group_size) (Inputs.append_doc ~seed)
    else [||]
  in
  let append_frames =
    Array.map (fun x -> Net.encode_request (Net.Append x)) append_texts
  in
  let draw =
    if churn then Inputs.churn_stream ~seed (Array.length stmts)
    else Inputs.hot_stream ~seed (Array.length stmts)
  in
  let data_dir i = Filename.concat dir (Printf.sprintf "data%d" i) in
  let start i =
    let data_dir = if churn then Some (data_dir i) else None in
    start_server ~corpus ?data_dir ()
  in
  let setup_times = ref [] in
  for i = 1 to setups - 1 do
    let c, _, conn, dt = start i in
    setup_times := dt :: !setup_times;
    Loadgen.close conn;
    stop_child c;
    rm_rf (data_dir i)
  done;
  let child, port, conn, dt = start setups in
  setup_times := dt :: !setup_times;
  add e2e "setup_s" "s" (Bstat.median (Array.of_list !setup_times));
  let second = Loadgen.connect port in
  let rows0 = (fst (stats_of conn)).Serve.snapshot_rows in
  let readers, writer =
    if churn then ([ conn ], Some second) else ([ conn; second ], None)
  in
  (* warm-up: every statement once, so the translation cache is full and
     the replay and plan caches hold what they will hold from then on *)
  let warm = List.init (Array.length stmts) Fun.id in
  let load =
    drive ~seconds ~frames ~draw ~readers ~writer ~append_frames ~warm
      ~sample_every:(if churn then 64 else 512)
  in
  let server, net = stats_of conn in
  let rss_mb = peak_rss_mb (string_of_int child.pid) in
  Loadgen.close conn;
  Loadgen.close second;
  stop_child child;
  let o = { load; server; net; rss_mb; rows0 } in
  check_serve ~text ~stmts ~append_texts
    ~recover_dir:(if churn then Some (data_dir setups) else None)
    o;
  (o, text, stmts, append_texts)

(* the share of the server's loop spent waiting for input *)
let select_share n = n.Net.select_s /. (n.Net.select_s +. n.Net.work_s)

let report_serve ~churn o =
  let lat = Bstat.sorted o.load.q_lat in
  let p50 = Bstat.median lat and p99 = Bstat.percentile 99. lat in
  let n = Array.length o.load.q_lat in
  let rates = o.load.q_rates in
  let qps = Bstat.weighted_median rates ~weights:rates in
  add e2e "op_p50_ms" "ms" (ms p50);
  add e2e "ops_per_s" "1/s" qps;
  add e2e "peak_rss_mb" "MB" o.rss_mb;
  say "query_p50_ms %.6f ms (n=%d, %s)" (ms p50) n (spread lat);
  say "query_p99_ms %.6f ms (n=%d, %d samples beyond)" (ms p99) n
    (Bstat.beyond 99. lat);
  say "query_per_s %.3f 1/s (the median query's %.1f s slice, of %d; \
       slices %s; overall %.3f)"
    qps slice_s (Array.length rates) (spread rates)
    (float_of_int n /. o.load.q_wall);
  add layers "e2e.query_p99_ms" "ms" (ms p99);
  if churn then begin
    let a50 = Bstat.median o.load.a_lat and pub = Bstat.median o.load.p_lat in
    say "append_p50_ms %.6f ms (n=%d, %s)" (ms a50) (Array.length o.load.a_lat)
      (spread o.load.a_lat);
    say "publish_s %.6f s (n=%d)" pub (Array.length o.load.p_lat);
    add layers "e2e.append_p50_ms" "ms" (ms a50);
    add layers "e2e.publish_s" "s" pub
  end;
  (* the generator, not the server, set the pace when it was busy the
     whole run while the server sat waiting for input *)
  let idle = select_share o.net in
  say
    "load client_cpu_share %.3f server_select_share %.3f \
     input_repeat_share %.3f"
    o.load.cpu_share idle o.load.repeat_share;
  if o.load.cpu_share > 0.9 && idle > 0.25 then
    say "warning: the load generator was saturated, not the server"

(* the server-side per-layer figures, read from its final Stats reply *)
let serve_counters o =
  let n = o.net and s = o.server in
  let queries = n.Net.batched_queries + n.Net.replayed in
  let ratio a b = per (float_of_int a) b in
  add layers "net.replay_ratio" "ratio" (ratio n.Net.replayed queries);
  add layers "net.batch_mean" "count"
    (ratio n.Net.batched_queries n.Net.batches);
  add layers "net.bytes_out_per_query" "B" (ratio n.Net.bytes_out queries);
  add layers "net.work_us_per_query" "us" (us (per n.Net.work_s queries));
  add layers "net.select_share" "ratio" (select_share n);
  add layers "serve.plan_hit_ratio" "ratio"
    (ratio s.Serve.cache_hits (s.Serve.cache_hits + s.Serve.cache_misses));
  add layers "wal.fsyncs_per_append" "ratio"
    (ratio s.Serve.wal_fsyncs s.Serve.wal_appends);
  add layers "wal.group_mean" "count"
    (ratio s.Serve.wal_appends s.Serve.wal_groups);
  add layers "relational.rows_growth" "ratio"
    (ratio s.Serve.snapshot_rows o.rows0);
  add layers "input.repeat_share" "ratio" o.load.repeat_share;
  add layers "client.cpu_share" "ratio" o.load.cpu_share

(* ------------------------------------------------------------------ *)
(* Serving: the traced in-process replay                               *)
(* ------------------------------------------------------------------ *)

type acc = {
  decode : float ref;
  parse : float ref;
  translate : float ref;
  compile : float ref;
  execute : float ref;
  encode : float ref;
  batch : float ref;
  parse_doc : float ref;
  shred_doc : float ref;
  flush : float ref;
  freeze : float ref;
  snapshot : float ref;
}

let new_acc () =
  let z () = ref 0. in
  {
    decode = z ();
    parse = z ();
    translate = z ();
    compile = z ();
    execute = z ();
    encode = z ();
    batch = z ();
    parse_doc = z ();
    shred_doc = z ();
    flush = z ();
    freeze = z ();
    snapshot = z ();
  }

type counts = {
  mutable queries : int;
  mutable replays : int;
  mutable translated : int;
  mutable compiled : int;
  mutable executed : int;
  mutable batched : int;
  mutable examined : int;
  mutable out_rows : int;
  mutable docs : int;
  mutable flushes : int;
  mutable publishes : int;
  mutable disk_bytes : int;
  mutable user_bytes : int;
}

(* Replay the recorded stream in-process, calling each layer's public
   functions in the order the server does: frame decode, the replay
   cache (simulated), parse, translate and compile (each behind its
   cache, as in Serve), execute, encode; appends parse, shred into the
   working store and stage in a WAL flushed per group; publishes
   freeze and snapshot.  A second in-process Serve.t answers the same
   misses in tick-sized run_batch calls. *)
let replay ~on ~dir ~text ~frames ~append_texts ~batch_size (o : serve_obs) =
  let a = new_acc () in
  let c =
    {
      queries = 0;
      replays = 0;
      translated = 0;
      compiled = 0;
      executed = 0;
      batched = 0;
      examined = 0;
      out_rows = 0;
      docs = 0;
      flushes = 0;
      publishes = 0;
      disk_bytes = 0;
      user_bytes = 0;
    }
  in
  let s = build_store text in
  let m = s.mapping and work = s.db in
  let snap = ref (timed on a.freeze (fun () -> Storage.freeze work)) in
  let wal_dir = Filename.concat dir "trace-wal" in
  rm_rf wal_dir;
  Unix.mkdir wal_dir 0o755;
  let snap_path = Wal.snapshot_file wal_dir in
  let write_snapshot last_seq =
    timed on a.snapshot (fun () ->
        Wal.write_snapshot ~path:snap_path ~schema:m.Mapping.schema
          ~ordered:m.Mapping.ordered ~last_seq !snap);
    c.disk_bytes <- c.disk_bytes + file_size snap_path
  in
  let durable = o.load.events <> [] in
  if durable then write_snapshot 0;
  let wal = Wal.create ~next_seq:1 (Wal.wal_file wal_dir) in
  let srv =
    let s2 = build_store text in
    Serve.create ~jobs:1 ~params:mem_params s2.mapping s2.db
  in
  let replay_cache = Hashtbl.create 4096 in
  let translations = Hashtbl.create 4096 in
  let plans = Hashtbl.create 4096 in
  let gen = ref 0 in
  let pending = ref [] and n_pending = ref 0 in
  let run_pending () =
    if !pending <> [] then begin
      let qs = Array.of_list (List.rev !pending) in
      pending := [];
      n_pending := 0;
      c.batched <- c.batched + Array.length qs;
      ignore (timed on a.batch (fun () -> Serve.run_batch srv qs))
    end
  in
  let inbuf = Iobuf.create 4096 in
  let query i =
    c.queries <- c.queries + 1;
    let req =
      timed on a.decode (fun () ->
          Iobuf.add_string inbuf frames.(i);
          match Net.extract_frame inbuf with
          | `Frame p -> Net.decode_request p
          | _ -> failwith "perfbench: replayed frame did not decode")
    in
    let text = match req with Net.Query q -> q | _ -> assert false in
    if Hashtbl.mem replay_cache text then c.replays <- c.replays + 1
    else begin
      let ast = timed on a.parse (fun () -> Xq_parse.parse ~name:"net" text) in
      pending := ast :: !pending;
      incr n_pending;
      if !n_pending >= batch_size then run_pending ();
      let lq =
        match Hashtbl.find_opt translations text with
        | Some lq -> lq
        | None ->
            c.translated <- c.translated + 1;
            let lq =
              timed on a.translate (fun () -> Xq_translate.translate m ast)
            in
            Hashtbl.replace translations text lq;
            lq
      in
      let plan =
        match Hashtbl.find_opt plans (text, !gen) with
        | Some p -> p
        | None ->
            c.compiled <- c.compiled + 1;
            let cat = Storage.catalog !snap in
            let p =
              timed on a.compile (fun () ->
                  List.map
                    (fun (b : Logical.block) ->
                      let r =
                        Optimizer.optimize_block ~params:mem_params cat b
                      in
                      (r.Optimizer.plan, b.Logical.out))
                    lq.Logical.blocks)
            in
            if Hashtbl.length plans >= 4096 then Hashtbl.reset plans;
            Hashtbl.replace plans (text, !gen) p;
            p
      in
      c.executed <- c.executed + 1;
      let rows =
        timed on a.execute (fun () ->
            List.concat_map
              (fun (plan, out) ->
                let rows, me = Executor.run_block !snap plan out in
                c.examined <-
                  c.examined + me.Executor.tuples_scanned
                  + me.Executor.index_probes + me.Executor.join_tuples;
                c.out_rows <- c.out_rows + me.Executor.output_rows;
                rows)
              plan)
      in
      let frame =
        timed on a.encode (fun () ->
            Net.encode_response (Net.Rows { rows; cached = true }))
      in
      if Hashtbl.length replay_cache < 4096 then
        Hashtbl.replace replay_cache text frame
    end
  in
  let group k =
    run_pending ();
    let docs =
      List.init group_size (fun j ->
          let x = append_texts.((k * group_size) + j) in
          c.user_bytes <- c.user_bytes + String.length x;
          c.docs <- c.docs + 1;
          let doc = timed on a.parse_doc (fun () -> Xml_parse.parse_string x) in
          let before =
            List.map
              (fun (t : Rschema.table) ->
                let name = t.Rschema.tname in
                (name, Storage.row_count work name))
              (Storage.catalog work).Rschema.tables
          in
          timed on a.shred_doc (fun () -> Shred.shred_into work m doc);
          let added =
            List.filter_map
              (fun (name, n0) ->
                let n1 = Storage.row_count work name in
                if n1 > n0 then
                  let row r = Storage.get work name (n0 + r) in
                  Some (name, List.init (n1 - n0) row)
                else None)
              before
          in
          ignore (Wal.stage wal added);
          doc)
    in
    let size0 = file_size (Wal.wal_file wal_dir) in
    timed on a.flush (fun () -> Wal.flush wal);
    c.flushes <- c.flushes + 1;
    c.disk_bytes <- c.disk_bytes + (file_size (Wal.wal_file wal_dir) - size0);
    ignore (Serve.append_group srv docs)
  in
  let publish () =
    run_pending ();
    snap := timed on a.freeze (fun () -> Storage.freeze work);
    write_snapshot (Wal.next_seq wal - 1);
    Wal.reset wal;
    Serve.publish srv;
    c.publishes <- c.publishes + 1;
    incr gen;
    Hashtbl.reset replay_cache
  in
  let setup_s = !(a.freeze) +. !(a.snapshot) in
  (* both replays start from a collected heap, so neither pays for the
     other's (or the network run's) garbage *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let events = ref o.load.events in
  let (), wall =
    time (fun () ->
        Array.iteri
          (fun k i ->
            let rec fire () =
              match !events with
              | (at, ev) :: rest when at <= k ->
                  events := rest;
                  (match ev with Group g -> group g | Publish -> publish ());
                  fire ()
              | _ -> ()
            in
            fire ();
            query i)
          o.load.sent;
        List.iter
          (function _, Group g -> group g | _, Publish -> publish ())
          !events;
        run_pending ())
  in
  let g1 = Gc.quick_stat () in
  Wal.close wal;
  rm_rf wal_dir;
  (a, c, s, setup_s, wall, g0, g1)

let trace_serve ~dir ~text ~stmts ~append_texts o =
  let frames = Array.map (fun q -> Net.encode_request (Net.Query q)) stmts in
  let n = o.net in
  let batch_size =
    max 1
      (int_of_float
         (Float.round (per (float_of_int n.Net.batched_queries) n.Net.batches)))
  in
  let replay ~on = replay ~on ~dir ~text ~frames ~append_texts ~batch_size o in
  let _, _, _, _, untraced, _, _ = replay ~on:false in
  let a, c, s, setup_s, traced, g0, g1 = replay ~on:true in
  add layers "xmldata.parse_corpus_s" "s" s.t_parse;
  add layers "stats.collect_s" "s" s.t_stats;
  add layers "mapping.shred_corpus_s" "s" s.t_shred;
  (* set-up plus each publish *)
  let snapshots = float_of_int (c.publishes + 1) in
  add layers "relational.freeze_s" "s" (!(a.freeze) /. snapshots);
  add layers "xmldata.parse_doc_us" "us" (us (per !(a.parse_doc) c.docs));
  add layers "mapping.shred_doc_us" "us" (us (per !(a.shred_doc) c.docs));
  add layers "wal.flush_ms" "ms" (ms (per !(a.flush) c.flushes));
  add layers "wal.snapshot_s" "s" (!(a.snapshot) /. snapshots);
  add layers "wal.bytes_per_user_byte" "ratio"
    (per (float_of_int c.disk_bytes) c.user_bytes);
  let misses = c.queries - c.replays in
  add layers "net.frame_decode_us" "us" (us (per !(a.decode) c.queries));
  add layers "xquery.parse_us" "us" (us (per !(a.parse) misses));
  add layers "mapping.translate_us" "us" (us (per !(a.translate) c.translated));
  add layers "optimizer.compile_us" "us" (us (per !(a.compile) c.compiled));
  add layers "optimizer.execute_us" "us" (us (per !(a.execute) c.executed));
  add layers "optimizer.examined_per_row" "ratio"
    (per (float_of_int c.examined) c.out_rows);
  add layers "net.frame_encode_us" "us" (us (per !(a.encode) c.executed));
  let batch_us = us (per !(a.batch) c.batched) in
  add layers "serve.batch_us" "us" batch_us;
  add layers "serve.overhead_us" "us"
    (batch_us
    -. us (per (!(a.translate) +. !(a.compile) +. !(a.execute)) misses));
  (* what the server's tick loop does, as traced here: the read path
     plus the appends, flushes and publishes between the queries *)
  let loop_work =
    !(a.decode) +. !(a.parse) +. !(a.translate) +. !(a.compile)
    +. !(a.execute) +. !(a.encode) +. !(a.parse_doc) +. !(a.shred_doc)
    +. !(a.flush) +. !(a.freeze) +. !(a.snapshot) -. setup_s
  in
  let net_queries = o.net.Net.batched_queries + o.net.Net.replayed in
  add layers "net.unattributed_us" "us"
    (us (per o.net.Net.work_s net_queries) -. us (per loop_work c.queries));
  let ops = c.queries + c.docs in
  add layers "gc.minor_words_per_op" "words"
    (per (g1.Gc.minor_words -. g0.Gc.minor_words) ops);
  add layers "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  add layers "trace.coverage" "ratio" ((loop_work +. !(a.batch)) /. untraced);
  add layers "trace.overhead" "s" (traced -. untraced)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* every per-layer metric, in BENCHMARK.json's order; a workload that
   never reaches a layer reports 0 for it *)
let layer_names =
  [
    ("e2e.design_s", "s");
    ("e2e.beam_s", "s");
    ("e2e.query_p99_ms", "ms");
    ("e2e.append_p50_ms", "ms");
    ("e2e.publish_s", "s");
    ("xmldata.parse_corpus_s", "s");
    ("xmldata.parse_doc_us", "us");
    ("stats.collect_s", "s");
    ("transform.neighbors_ms", "ms");
    ("mapping.of_pschema_ms", "ms");
    ("mapping.translate_workload_ms", "ms");
    ("mapping.translate_us", "us");
    ("mapping.shred_corpus_s", "s");
    ("mapping.shred_doc_us", "us");
    ("optimizer.cost_ms", "ms");
    ("optimizer.compile_us", "us");
    ("optimizer.execute_us", "us");
    ("optimizer.examined_per_row", "ratio");
    ("relational.freeze_s", "s");
    ("relational.rows_growth", "ratio");
    ("xquery.parse_us", "us");
    ("search.evaluations", "count");
    ("search.memo_hit_ratio", "ratio");
    ("search.fanout_s", "s");
    ("search.merge_s", "s");
    ("search.barrier_idle_s", "s");
    ("search.first_design_s", "s");
    ("serve.batch_us", "us");
    ("serve.overhead_us", "us");
    ("serve.plan_hit_ratio", "ratio");
    ("wal.flush_ms", "ms");
    ("wal.fsyncs_per_append", "ratio");
    ("wal.group_mean", "count");
    ("wal.snapshot_s", "s");
    ("wal.bytes_per_user_byte", "ratio");
    ("net.frame_decode_us", "us");
    ("net.frame_encode_us", "us");
    ("net.replay_ratio", "ratio");
    ("net.batch_mean", "count");
    ("net.bytes_out_per_query", "B");
    ("net.work_us_per_query", "us");
    ("net.select_share", "ratio");
    ("net.unattributed_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("input.repeat_share", "ratio");
    ("client.cpu_share", "ratio");
    ("trace.coverage", "ratio");
    ("trace.overhead", "s");
  ]

let e2e_names =
  [
    ("setup_s", "s"); ("op_p50_ms", "ms"); ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line names got =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.find_opt (fun (n, _, _) -> n = name) got with
          | Some (_, v, _) -> v
          | None -> 0.
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float v) unit)
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) (max 1 !attempted) !failed (String.concat ", " metrics)

let main workload ~seed ~seconds ~trace =
  let dir =
    Filename.concat ".bench_work"
      (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  rm_rf dir;
  (try Unix.mkdir ".bench_work" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  (* at exit, not in a [finally]: a failed check leaves through [exit 1] *)
  at_exit (fun () ->
      List.iter stop_child !children;
      rm_rf dir);
  say "env nproc=%d ocaml=%s par_backend=%s commit=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Par.backend (commit ());
  let probe_before = probe () in
  (match workload with
  | "design" ->
      let o = run_design ~dir ~seed ~seconds in
      report_design o;
      if trace then trace_design ~dir o
  | _ ->
      let churn = workload = "serve_churn" in
      let o, text, stmts, append_texts = run_serve ~dir ~seed ~seconds ~churn in
      report_serve ~churn o;
      if trace then begin
        serve_counters o;
        trace_serve ~dir ~text ~stmts ~append_texts o
      end);
  let probe_after = probe () in
  say "env probe_before_s=%.6f probe_after_s=%.6f" probe_before probe_after;
  let print = List.iter (fun (n, v, u) -> say "%s %.6f %s" n v u) in
  print (List.rev !e2e);
  if trace then print (List.rev !layers);
  say "failed_share %.6f ratio (%d of %d operations)"
    (per (float_of_int !failed) (max 1 !attempted)) !failed !attempted;
  print_endline
    (if trace then result_line layer_names !layers
     else result_line e2e_names !e2e);
  if !failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10 and trace = ref 0 in
  let child = ref "" and data_dir = ref "" and corpus_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "design|serve_hot|serve_churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 add the traced in-process replay");
      ( "--serve-child",
        Arg.Set_string child,
        "CORPUS (internal) serve CORPUS over TCP" );
      ( "--data-dir",
        Arg.Set_string data_dir,
        "DIR (internal) durable data directory" );
      ( "--write-corpus",
        Arg.Set_string corpus_out,
        "PATH (internal) write the seed's corpus" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lb_bench [options]";
  if !child <> "" then serve_child !child !data_dir
  else if !corpus_out <> "" then
    write_file !corpus_out (Inputs.corpus_text !seed)
  else if
    (not (List.mem !workload [ "design"; "serve_hot"; "serve_churn" ]))
    || !seconds < 1
  then begin
    prerr_endline
      "lb_bench: --workload design|serve_hot|serve_churn and a positive \
       --seconds are required";
    exit 2
  end
  else main !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
