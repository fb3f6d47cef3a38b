(* The LegoDB command-line tool.

   Subcommands:
     design     run the cost-based storage design for a workload
     serve      stand up a query server over a shredded corpus
     sql        translate queries under a storage configuration
     shred      load an XML document and show the resulting tables
     publish    shred and reconstruct a document (round-trip check)
     generate   produce a synthetic IMDB document
     stats      collect path statistics from a document
     validate   validate a document against the schema
     transforms list the transformations applicable to a configuration *)

open Legodb
open Cmdliner

(* ---------------- shared arguments ---------------- *)

let schema_of_name = function
  | "imdb" -> Ok Imdb.Schema.schema
  | "imdb-section2" -> Ok Imdb.Schema.section2
  | file when Sys.file_exists file -> (
      match Xtype_parse.schema_of_file file with
      | s -> Ok s
      | exception Xtype_parse.Parse_error { position; message } ->
          Error (Printf.sprintf "%s: parse error at %d: %s" file position message))
  | s -> Error (Printf.sprintf "unknown schema %S (try: imdb, imdb-section2, or a .xta file in the type notation)" s)

let schema_arg =
  let doc =
    "Schema: a built-in name (imdb, imdb-section2) or a file in the XML \
     Query Algebra type notation (type N = tag [ ... ])."
  in
  Arg.(value & opt string "imdb" & info [ "schema" ] ~docv:"NAME|FILE" ~doc)

let sample_arg =
  let doc = "Sample XML document; statistics are collected from it." in
  Arg.(value & opt (some file) None & info [ "sample" ] ~docv:"FILE" ~doc)

let config_arg =
  let doc =
    "Storage configuration: inlined (union-to-options + inline-all), \
     outlined (every element its own table), or ps0 (minimal \
     normalization)."
  in
  Arg.(value & opt string "inlined" & info [ "config" ] ~docv:"KIND" ~doc)

let workload_arg =
  let doc =
    "Workload: lookup, publish, mixed:K (lookup fraction K), or a file of \
     XQuery queries separated by blank lines."
  in
  Arg.(value & opt string "lookup" & info [ "workload" ] ~docv:"SPEC" ~doc)

let scale_arg =
  let doc =
    "Scale factor of the generated IMDB corpus relative to the paper's \
     dataset (1.0 = full)."
  in
  Arg.(value & opt float 0.01 & info [ "scale" ] ~docv:"F" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

(* integers with a lower bound: a violation is a cmdliner usage error
   (exit 124) naming the flag, like any other malformed value *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error (`Msg (Printf.sprintf "must be >= %d (got %d)" lo n))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1
let non_negative = int_at_least 0

(* floats inside bounds, refused the same way *)
let float_where ~bounds ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (ok x) ->
        Error (`Msg (Printf.sprintf "must be %s (got %s)" bounds s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let fail fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

(* a statement the server answered with an error, and the exit code of
   its kind *)
exception Unanswered of int

let load_stats schema sample =
  match sample with
  | Some file -> Collector.collect (Xml_parse.parse_file file)
  | None ->
      if schema == Imdb.Schema.schema then Imdb.Stats.full else Pathstat.empty

let split_on_blank_lines text =
  let lines = String.split_on_char '\n' text in
  let chunks, current =
    List.fold_left
      (fun (chunks, current) line ->
        if String.trim line = "" then
          match current with
          | [] -> (chunks, [])
          | c -> (String.concat "\n" (List.rev c) :: chunks, [])
        else (chunks, line :: current))
      ([], []) lines
  in
  let chunks =
    match current with
    | [] -> chunks
    | c -> String.concat "\n" (List.rev c) :: chunks
  in
  List.rev chunks

let parse_queries_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  List.mapi
    (fun i c -> Xq_parse.parse ~name:(Printf.sprintf "query%d" (i + 1)) c)
    (split_on_blank_lines text)

let load_workload spec =
  match spec with
  | "lookup" -> Ok Imdb.Workloads.lookup
  | "publish" -> Ok Imdb.Workloads.publish
  | s when String.length s > 6 && String.sub s 0 6 = "mixed:" -> (
      match float_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some k when k >= 0. && k <= 1. -> Ok (Imdb.Workloads.mixed k)
      | _ -> Error "mixed:K needs K in [0,1]")
  | file when Sys.file_exists file -> (
      match parse_queries_file file with
      | [] -> Error "no queries in file"
      | qs -> Ok (Workload.of_queries qs)
      | exception Xq_parse.Parse_error { position; message } ->
          Error (Printf.sprintf "parse error at %d: %s" position message))
  | s -> Error (Printf.sprintf "unknown workload %S" s)

let configuration schema stats kind =
  let annotated = Annotate.schema stats schema in
  match kind with
  | "inlined" -> Ok (Init.all_inlined annotated)
  | "outlined" -> Ok (Init.all_outlined annotated)
  | "ps0" -> Ok (Init.normalize annotated)
  | k -> Error (Printf.sprintf "unknown configuration %S" k)

(* schema → statistics → configuration → relational mapping, the chain
   serve, sql, shred and publish share.  [stats] is handed the resolved
   schema, and is only called once it resolved. *)
let mapping_of ~schema ~config stats =
  let ( let* ) = Result.bind in
  let* schema = schema_of_name schema in
  let* ps = configuration schema (stats schema) config in
  Result.map_error (String.concat "; ") (Mapping.of_pschema ps)

(* a document with the mapping chosen from its own statistics; the
   document is parsed or generated only once the schema resolved *)
let doc_mapping ~schema ~config doc =
  mapping_of ~schema ~config (fun _ -> Collector.collect (Lazy.force doc))
  |> Result.map (fun m -> (Lazy.force doc, m))

(* ---------------- design ---------------- *)

let design_cmd =
  let strategy =
    let doc = "Greedy strategy: si (start inlined) or so (start outlined)." in
    Arg.(value & opt string "si" & info [ "strategy" ] ~doc)
  in
  let threshold =
    let doc =
      "Stop when the relative improvement falls below $(docv), a fraction \
       in [0, 1)."
    in
    let fraction =
      float_where ~bounds:"in [0, 1)" (fun t -> t >= 0. && t < 1.)
    in
    Arg.(value & opt fraction 0. & info [ "threshold" ] ~docv:"T" ~doc)
  in
  let indexes =
    let doc = "Assume indexes on workload equality columns." in
    Arg.(value & flag & info [ "workload-indexes" ] ~doc)
  in
  let jobs =
    let doc =
      "Cost the neighbor configurations of each search iteration on $(docv) \
       cores (0 = one per core).  The selected design is bit-identical for \
       every value; requires an OCaml 5 build for actual parallelism."
    in
    Arg.(value & opt non_negative 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let budget_ms =
    let doc =
      "Stop the search after $(docv) milliseconds of wall-clock time and \
       report the best design found so far (anytime mode)."
    in
    let ms = float_where ~bounds:">= 0" (fun ms -> ms >= 0.) in
    Arg.(value & opt (some ms) None & info [ "budget-ms" ] ~docv:"MS" ~doc)
  in
  let max_iters =
    let doc = "Stop the search after $(docv) completed iterations." in
    Arg.(
      value
      & opt (some non_negative) None
      & info [ "max-iters" ] ~docv:"N" ~doc)
  in
  let max_evals =
    let doc =
      "Stop the search after costing $(docv) candidate configurations."
    in
    Arg.(
      value
      & opt (some non_negative) None
      & info [ "max-evals" ] ~docv:"N" ~doc)
  in
  let checkpoint =
    let doc =
      "Write a durable snapshot of the search state to $(docv) (atomically: \
       tmp + rename) at iteration barriers and on every stop — including \
       Ctrl-C — so an interrupted run can be continued with $(b,--resume)."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every =
    let doc =
      "Snapshot every $(docv) completed iterations (0 = only when the search \
       stops)."
    in
    Arg.(
      value & opt non_negative 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let resume =
    let doc =
      "Continue a search from a snapshot written by $(b,--checkpoint) instead \
       of starting fresh; the strategy, transformation kinds, threshold, and \
       progress so far come from the snapshot ($(b,--schema), \
       $(b,--strategy), and $(b,--threshold) are ignored), while the \
       workload, budget, and $(b,-j) are taken from this invocation and must \
       match the original run's for bit-identical continuation.  Unless \
       $(b,--checkpoint) says otherwise, the resumed run keeps snapshotting \
       to the same file."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let run schema_name sample workload strategy threshold indexes jobs budget_ms
      max_iters max_evals ckpt_path ckpt_every resume_path =
    match schema_of_name schema_name with
    | Error m -> fail "%s" m
    | Ok schema -> (
        match load_workload workload with
        | Error m -> fail "%s" m
        | Ok w -> (
            let stats = load_stats schema sample in
            let annotated = Annotate.schema stats schema in
            (* the budget doubles as the Ctrl-C channel: SIGINT trips it,
               the search unwinds cooperatively, the final snapshot is
               written at the barrier, and the best-so-far design is
               reported instead of a backtrace *)
            let budget =
              Budget.create ?wall_ms:budget_ms ?max_iterations:max_iters
                ?max_evaluations:max_evals ()
            in
            let checkpoint =
              match (ckpt_path, resume_path) with
              | Some p, _ | None, Some p -> Some (p, ckpt_every)
              | None, None -> None
            in
            let engine =
              Cost_engine.create ~workload_indexes:indexes ~workload:w ()
            in
            let search =
              match resume_path with
              | Some path ->
                  Ok
                    (fun _initial ->
                      Search.resume ~jobs ~engine ~budget ?checkpoint
                        ~workload:w path)
              | None -> (
                  match strategy with
                  | "si" ->
                      Ok
                        (Search.greedy_si ~threshold ~jobs ~engine ~budget
                           ?checkpoint ~workload:w)
                  | "so" ->
                      Ok
                        (Search.greedy_so ~threshold ~jobs ~engine ~budget
                           ?checkpoint ~workload:w)
                  | s -> Error (Printf.sprintf "unknown strategy %S" s))
            in
            match search with
            | Error m -> fail "%s" m
            | Ok search -> (
                let previous =
                  Sys.signal Sys.sigint
                    (Sys.Signal_handle (fun _ -> Budget.interrupt budget))
                in
                let r =
                  Fun.protect
                    ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
                    (fun () -> search annotated)
                in
                match Legodb.of_result r with
                | Error es -> fail "%s" (String.concat "; " es)
                | Ok d ->
                    Format.printf "%a@." Legodb.report d;
                    if r.Search.stopped = `Interrupted then begin
                      prerr_endline "legodb: interrupted; best design so far shown above";
                      exit 130
                    end;
                    `Ok ())))
  in
  let term =
    Term.(
      ret
        (const run $ schema_arg $ sample_arg $ workload_arg $ strategy
       $ threshold $ indexes $ jobs $ budget_ms $ max_iters $ max_evals
       $ checkpoint $ checkpoint_every $ resume))
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:"Find an efficient XML-to-relational mapping for a workload")
    term

(* ---------------- serve ---------------- *)

let serve_cmd =
  let served_doc =
    let doc = "Serve this XML document instead of a generated corpus." in
    Arg.(value & opt (some file) None & info [ "doc" ] ~docv:"FILE" ~doc)
  in
  let requests =
    let doc = "Replay the workload queries round-robin as $(docv) requests." in
    Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let jobs =
    let doc =
      "Answer each request batch on $(docv) cores (0 = one per core); \
       requires an OCaml 5 build for actual parallelism."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let data_dir =
    let doc =
      "Serve durably out of $(docv): appends are write-ahead logged and \
       fsynced before they are acknowledged, and each publish writes the \
       segment it sealed and then atomically replaces the manifest that \
       names the store's segments.  If the directory already holds a \
       manifest the server is $(i,recovered) from it (segments + log \
       replay; a torn log tail is truncated and reported, real corruption \
       or a directory of an older store format exits with code 8) and the \
       corpus/schema flags are ignored."
    in
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)
  in
  let appends =
    let doc =
      "After the query passes, append $(docv) small generated IMDB documents \
       (seeded deterministically from $(b,--seed))."
    in
    Arg.(value & opt int 0 & info [ "appends" ] ~docv:"N" ~doc)
  in
  let publish_every =
    let doc = "Publish after every $(docv) appends (0 = never)." in
    Arg.(value & opt int 0 & info [ "publish-every" ] ~docv:"K" ~doc)
  in
  let crash_after =
    let doc =
      "Fault injection: SIGKILL this process immediately after the $(docv)-th \
       append is acknowledged — the crash the recovery path (and the CI \
       durability smoke) is tested against."
    in
    Arg.(value & opt (some int) None & info [ "crash-after" ] ~docv:"K" ~doc)
  in
  let timeout_ms =
    let doc =
      "Give every request a $(docv)-millisecond wall-clock budget; a request \
       over budget degrades to an error slot instead of wedging its worker."
    in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let listen =
    let doc =
      "Serve over TCP on 127.0.0.1:$(docv) (0 = an ephemeral port, printed \
       on startup) instead of replaying the workload in-process.  Runs \
       until SIGINT; connect with $(b,legodb query --connect)."
    in
    Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT" ~doc)
  in
  let group_commit_ms =
    let doc =
      "Group commit window: an append waits up to $(docv) milliseconds for \
       company before its group's single fsync acknowledges them all (0 \
       still groups appends arriving in the same server loop round)."
    in
    Arg.(
      value & opt non_negative 5 & info [ "group-commit-ms" ] ~docv:"MS" ~doc)
  in
  let max_group =
    let doc = "Commit an append group once it holds $(docv) appends." in
    Arg.(value & opt positive 64 & info [ "max-group" ] ~docv:"N" ~doc)
  in
  let idle_timeout_ms =
    let doc =
      "Reap a connection that has neither moved a byte nor been owed a \
       response for $(docv) milliseconds (network mode only)."
    in
    Arg.(
      value
      & opt (some positive) None
      & info [ "idle-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_conns =
    let doc =
      "Park the listener while $(docv) connections are open — pending peers \
       wait in the kernel backlog and are accepted as slots free up \
       (network mode only)."
    in
    Arg.(value & opt (some positive) None & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let run schema config workload scale seed served_doc requests jobs
      data_dir appends publish_every crash_after timeout_ms listen
      group_commit_ms max_group idle_timeout_ms max_conns =
    let server =
      match data_dir with
      | Some dir
        when Sys.file_exists (Wal.manifest_file dir)
             || Sys.file_exists (Wal.snapshot_file dir) ->
          (* recovery also refuses a store format 1 directory, marked by
             its whole-store snapshot *)
          let server, r = Serve.recover ~jobs ~dir () in
          Format.printf "recovered %s: %a@." dir Serve.pp_recovery r;
          Ok server
      | _ ->
          lazy
            (match served_doc with
            | Some f -> Xml_parse.parse_file f
            | None ->
                Imdb.Gen.generate
                  { (Imdb.Gen.scaled scale) with Imdb.Gen.seed })
          |> doc_mapping ~schema ~config
          |> Result.map (fun (doc, m) ->
                 Serve.create ~jobs ?data_dir m (Shred.shred m doc))
    in
    match server with
    | Error m -> fail "%s" m
    | Ok server when listen <> None ->
        (* network mode: requests come from the wire, not the workload
           replay.  SIGINT stops the loop; stats print on the way out. *)
        let port = Option.get listen in
        Format.printf "%a@." Storage.pp_summary (Serve.snapshot server);
        let stop = ref false in
        let previous =
          Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
        in
        let net =
          Fun.protect
            ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
            (fun () ->
              Net.serve ~group_commit_ms ~max_group ?idle_timeout_ms
                ?max_conns ?timeout_ms ~stop
                ~on_listen:(fun p ->
                  Format.printf "listening on 127.0.0.1:%d@." p)
                ~port server)
        in
        Format.printf "%a@." Serve.pp_stats (Serve.stats server);
        Format.printf "%a@." Net.pp_net_stats net;
        `Ok ()
    | Ok server -> (
        match load_workload workload with
        | Error m -> fail "%s" m
        | Ok w ->
        Format.printf "%a@." Storage.pp_summary (Serve.snapshot server);
        let qs = Array.of_list (List.map fst w) in
        let reqs =
          Array.init (max 1 requests) (fun i -> qs.(i mod Array.length qs))
        in
        (* the first batch compiles every distinct statement into
           the plan cache; the second replays the same requests
           and should be all cache hits *)
        let pass label =
          let t0 = Unix.gettimeofday () in
          let replies = Serve.run_batch ?timeout_ms server reqs in
          let wall_s = Unix.gettimeofday () -. t0 in
          let latencies =
            Array.to_list replies
            |> List.filter_map (function
                 | Ok (r : Serve.reply) -> Some r.Serve.latency_s
                 | Error _ -> None)
            |> Array.of_list
          in
          let errs =
            Array.fold_left
              (fun acc -> function Error _ -> acc + 1 | Ok _ -> acc)
              0 replies
          in
          Format.printf "%s: %a%s@." label Serve.pp_summary
            (Serve.summarize ~wall_s latencies)
            (if errs > 0 then Printf.sprintf " (%d errors)" errs else "");
          errs
        in
        let errs = pass "cold" in
        ignore (pass "warm");
        for i = 1 to max 0 appends do
          let p = { (Imdb.Gen.scaled 0.002) with Imdb.Gen.seed = seed + i } in
          Serve.append server (Imdb.Gen.generate p);
          (* after the ack: an acknowledged append must survive the kill *)
          if crash_after = Some i then Unix.kill (Unix.getpid ()) Sys.sigkill;
          if publish_every > 0 && i mod publish_every = 0 then
            Serve.publish server
        done;
        Format.printf "%a@." Serve.pp_stats (Serve.stats server);
        if errs = Array.length reqs then
          fail "no workload query is answerable under this configuration"
        else `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ schema_arg $ config_arg $ workload_arg $ scale_arg
       $ seed_arg $ served_doc $ requests $ jobs $ data_dir $ appends
       $ publish_every $ crash_after $ timeout_ms $ listen $ group_commit_ms
       $ max_group $ idle_timeout_ms $ max_conns))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Shred a corpus and answer workload queries concurrently over a \
          frozen snapshot")
    term

(* ---------------- query (network client) ---------------- *)

let query_cmd =
  let connect =
    let doc = "Server endpoint, as printed by $(b,legodb serve --listen)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip a ping frame first.")
  in
  let appends =
    let doc =
      "Pipeline $(docv) appends of small generated IMDB documents (all \
       frames sent before any ack is awaited, so they share commit groups)."
    in
    Arg.(value & opt int 0 & info [ "appends" ] ~docv:"N" ~doc)
  in
  let do_publish =
    Arg.(
      value & flag
      & info [ "publish" ] ~doc:"Request a publish barrier after the appends.")
  in
  let requests =
    let doc = "Replay the workload's queries round-robin as $(docv) requests." in
    Arg.(value & opt int 0 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let server_stats =
    Arg.(
      value & flag
      & info [ "server-stats" ] ~doc:"Print the server's counters at the end.")
  in
  let concurrency =
    let doc =
      "Drive the $(b,--requests) replay over $(docv) pipelined connections \
       from this one process: each round sends one query per connection \
       before awaiting any response, so the server sees them in one select \
       tick and answers them as one shared batch.  A sample of the answers \
       is re-asked sequentially afterwards and checked bit-identical."
    in
    Arg.(value & opt positive 1 & info [ "concurrency" ] ~docv:"N" ~doc)
  in
  let depth =
    let doc =
      "Pipeline $(docv) queries per connection per round, corked into a \
       single write each — the whole chunk reaches the server in one read, \
       so shared batches form deterministically instead of depending on \
       scheduler timing.  Only meaningful with $(b,--concurrency)."
    in
    Arg.(value & opt positive 1 & info [ "depth" ] ~docv:"D" ~doc)
  in
  let corrupt_probe =
    let doc =
      "Protocol check: append a document holding a surrogate character \
       reference and report whether the server rejects it with a structured \
       error, then send a deliberately bit-flipped request frame and report \
       whether the server answers with a structured error and closes this \
       connection cleanly (it must keep serving others)."
    in
    Arg.(value & flag & info [ "corrupt-probe" ] ~doc)
  in
  let query_text =
    let doc = "One XQuery request to send; its rows print to stdout." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let pp_row fmt row =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " | ")
      Rtype.pp_value fmt row
  in
  let run connect_s workload ping appends seed do_publish requests
      server_stats concurrency depth corrupt_probe query_text =
    match Net.parse_endpoint connect_s with
    | Error m -> fail "%s" m
    | Ok (host, port) -> (
        if corrupt_probe then begin
          (* a framing error costs the connection, so the probe gets a
             connection of its own *)
          let c = Net.connect ~host ~port () in
          (* malformed XML must cost only its own request *)
          (match Net.rpc c (Net.Append "<imdb>&#xD800;</imdb>") with
          | Net.Error_reply m ->
              Format.printf "malformed append: rejected (%s)@." m
          | _ ->
              Format.printf "malformed append: UNEXPECTED non-error reply@.");
          let frame =
            Bytes.of_string
              (Net.encode_request (Net.Query "FOR $v in imdb/show RETURN $v"))
          in
          let i = Bytes.length frame - 1 in
          Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 0x01));
          Net.send_raw c (Bytes.to_string frame);
          (match Net.recv c with
          | Net.Error_reply m -> Format.printf "corrupt probe: rejected (%s)@." m
          | _ -> Format.printf "corrupt probe: UNEXPECTED non-error reply@.");
          (match Net.recv c with
          | exception Net.Closed ->
              Format.printf "corrupt probe: connection closed cleanly@."
          | exception Net.Protocol_error _ ->
              Format.printf "corrupt probe: connection dropped@."
          | _ -> Format.printf "corrupt probe: UNEXPECTED second reply@.");
          Net.close c
        end;
        let c = Net.connect ~host ~port () in
        Fun.protect ~finally:(fun () -> Net.close c) @@ fun () ->
        let describe = function
          | Net.Rows { rows; cached } ->
              Printf.sprintf "%d rows%s" (List.length rows)
                (if cached then " (cached)" else "")
          | Net.Acked -> "acked"
          | Net.Published -> "published"
          | Net.Stats_reply _ -> "stats"
          | Net.Pong -> "pong"
          | Net.Error_reply m -> Printf.sprintf "error: %s" m
        in
        if ping then Format.printf "ping: %s@." (describe (Net.rpc c Net.Ping));
        if appends > 0 then begin
          for i = 1 to appends do
            let p = { (Imdb.Gen.scaled 0.002) with Imdb.Gen.seed = seed + i } in
            Net.send c (Net.Append (Xml.to_string (Imdb.Gen.generate p)))
          done;
          let acked = ref 0 in
          for _ = 1 to appends do
            match Net.recv c with
            | Net.Acked -> incr acked
            | r -> Format.eprintf "append: %s@." (describe r)
          done;
          Format.printf "acked %d/%d appends@." !acked appends
        end;
        if do_publish then
          Format.printf "publish: %s@." (describe (Net.rpc c Net.Publish));
        let failed = ref false and refused = ref None in
        (match query_text with
        | None -> ()
        | Some text -> (
            match Net.rpc c (Net.Query text) with
            | Net.Rows { rows; cached } ->
                List.iter (fun row -> Format.printf "%a@." pp_row row) rows;
                Format.eprintf "%d rows%s@." (List.length rows)
                  (if cached then " (cached)" else "")
            | r ->
                failed := true;
                (match r with
                | Net.Error_reply m -> (
                    match Serve.error_kind m with
                    | Serve.Parse_failure -> refused := Some 5
                    | Serve.Untranslation -> refused := Some 4
                    | Serve.Other_failure -> ())
                | _ -> ());
                Format.eprintf "query: %s@." (describe r)));
        (if requests > 0 then
           match load_workload workload with
           | Error m -> Format.eprintf "workload: %s@." m
           | Ok w ->
               let texts =
                 Array.of_list
                   (List.map
                      (fun ((q : Xq_ast.t), _) ->
                        Format.asprintf "%a" Xq_ast.pp q)
                      w)
               in
               (* the [cached] flag legitimately differs between a
                  query's first and later answers; everything else must
                  be bit-identical *)
               let canon = function
                 | Net.Rows { rows; _ } ->
                     Some (Net.encode_response (Net.Rows { rows; cached = false }))
                 | _ -> None
               in
               let latencies = Array.make requests 0. in
               let errs = ref 0 in
               (* first concurrent-path answer per distinct query text,
                  for the sequential recheck below *)
               let samples = Hashtbl.create 16 in
               if concurrency = 1 then begin
                 let t0 = Unix.gettimeofday () in
                 for i = 0 to requests - 1 do
                   let q0 = Unix.gettimeofday () in
                   (match
                      Net.rpc c (Net.Query texts.(i mod Array.length texts))
                    with
                   | Net.Rows _ -> ()
                   | _ -> incr errs);
                   latencies.(i) <- Unix.gettimeofday () -. q0
                 done;
                 let wall_s = Unix.gettimeofday () -. t0 in
                 Format.printf "network: %a%s@." Serve.pp_summary
                   (Serve.summarize ~wall_s latencies)
                   (if !errs > 0 then Printf.sprintf " (%d errors)" !errs
                    else "")
               end
               else begin
                 let peers =
                   Array.init concurrency (fun _ -> Net.connect ~host ~port ())
                 in
                 Fun.protect
                   ~finally:(fun () -> Array.iter Net.close peers)
                 @@ fun () ->
                 let t0 = Unix.gettimeofday () in
                 let cork = Buffer.create 1024 in
                 let i = ref 0 in
                 while !i < requests do
                   (* one round: request !i + t rides connection
                      (t mod concurrency); every connection's [depth]
                      queries go out corked into one write before any
                      response is awaited, so the server reads whole
                      chunks in one tick and answers them as shared
                      batches *)
                   let k = min (concurrency * depth) (requests - !i) in
                   let sent = Unix.gettimeofday () in
                   for j = 0 to min concurrency k - 1 do
                     Buffer.clear cork;
                     let t = ref j in
                     while !t < k do
                       Buffer.add_string cork
                         (Net.encode_request
                            (Net.Query
                               texts.((!i + !t) mod Array.length texts)));
                       t := !t + concurrency
                     done;
                     Net.send_raw peers.(j) (Buffer.contents cork)
                   done;
                   for t = 0 to k - 1 do
                     let text = texts.((!i + t) mod Array.length texts) in
                     (match Net.recv peers.(t mod concurrency) with
                     | Net.Rows _ as r ->
                         if not (Hashtbl.mem samples text) then
                           Option.iter
                             (Hashtbl.add samples text)
                             (canon r)
                     | _ -> incr errs);
                     latencies.(!i + t) <- Unix.gettimeofday () -. sent
                   done;
                   i := !i + k
                 done;
                 let wall_s = Unix.gettimeofday () -. t0 in
                 Format.printf "network (%d conns%s): %a%s@." concurrency
                   (if depth > 1 then Printf.sprintf " x %d deep" depth
                    else "")
                   Serve.pp_summary
                   (Serve.summarize ~wall_s latencies)
                   (if !errs > 0 then Printf.sprintf " (%d errors)" !errs
                    else "");
                 (* every distinct answer seen concurrently must match
                    the same query asked sequentially *)
                 let total = ref 0 and same = ref 0 in
                 Hashtbl.iter
                   (fun text enc ->
                     incr total;
                     match canon (Net.rpc c (Net.Query text)) with
                     | Some enc' when String.equal enc enc' -> incr same
                     | _ -> ())
                   samples;
                 Format.printf "sampled recheck: %d/%d answers bit-identical@."
                   !same !total;
                 if !same < !total then failed := true
               end);
        (if server_stats then
           match Net.rpc c Net.Stats with
           | Net.Stats_reply { serve; net } ->
               Format.printf "%a@." Serve.pp_stats serve;
               if net.Net.ticks > 0 then
                 Format.printf "%a@." Net.pp_net_stats net
           | r -> Format.eprintf "stats: %s@." (describe r));
        match (!failed, !refused) with
        | true, Some code -> raise (Unanswered code)
        | true, None -> fail "the query was not answered"
        | false, _ -> `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ connect $ workload_arg $ ping $ appends $ seed_arg
       $ do_publish $ requests $ server_stats $ concurrency $ depth
       $ corrupt_probe $ query_text))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Talk to a running legodb serve --listen over TCP")
    term

(* ---------------- sql ---------------- *)

let sql_cmd =
  let run schema config sample workload =
    match
      Result.bind
        (mapping_of ~schema ~config (fun schema -> load_stats schema sample))
        (fun m -> Result.map (fun w -> (m, w)) (load_workload workload))
    with
    | Error m -> fail "%s" m
    | Ok (m, w) ->
        Format.printf "-- schema --@.%s@." (Sql.ddl m.Mapping.catalog);
        List.iter
          (fun ((q : Xq_ast.t), _) ->
            match Xq_translate.translate m q with
            | lq ->
                let _, cost = Optimizer.query_cost m.Mapping.catalog lq in
                Format.printf "%a@.-- estimated cost: %.1f@.@." Logical.pp_query
                  lq cost
            | exception Xq_translate.Untranslatable msg ->
                Format.printf "-- %s: untranslatable (%s)@.@." q.Xq_ast.name
                  msg)
          w;
        `Ok ()
  in
  let term =
    Term.(ret (const run $ schema_arg $ config_arg $ sample_arg $ workload_arg))
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Show the DDL and translated SQL for a configuration")
    term

(* ---------------- shred / publish ---------------- *)

let doc_arg =
  let doc = "XML document to load." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let shred_cmd =
  let run schema config file =
    match doc_mapping ~schema ~config (lazy (Xml_parse.parse_file file)) with
    | Error m -> fail "%s" m
    | Ok (doc, m) -> (
        match Shred.shred m doc with
        | db ->
            Format.printf "%a@." Storage.pp_summary db;
            `Ok ()
        | exception Shred.Shred_error { path; message } ->
            fail "shredding failed at %s: %s" (String.concat "/" path) message)
  in
  let term = Term.(ret (const run $ schema_arg $ config_arg $ doc_arg)) in
  Cmd.v
    (Cmd.info "shred" ~doc:"Load a document and show the resulting tables")
    term

let publish_cmd =
  let run schema config file =
    match doc_mapping ~schema ~config (lazy (Xml_parse.parse_file file)) with
    | Error m -> fail "%s" m
    | Ok (doc, m) ->
        let doc' = Publish.document (Shred.shred m doc) m in
        print_endline (Xml.to_string doc');
        Printf.eprintf "round trip: %s\n"
          (if Xml.equal doc doc' then "exact" else "differs");
        `Ok ()
  in
  let term = Term.(ret (const run $ schema_arg $ config_arg $ doc_arg)) in
  Cmd.v
    (Cmd.info "publish"
       ~doc:"Shred a document, rebuild it from the tables, and print it")
    term

(* ---------------- generate / stats / validate / transforms ------------- *)

let generate_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).")
  in
  let run scale seed out =
    let p = { (Imdb.Gen.scaled scale) with Imdb.Gen.seed } in
    let doc = Imdb.Gen.generate p in
    let text = Xml.to_string doc in
    (match out with
    | Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Printf.eprintf "wrote %d elements to %s\n" (Xml.count_elements doc) file
    | None -> print_endline text);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic IMDB document")
    Term.(ret (const run $ scale_arg $ seed_arg $ out))

let stats_cmd =
  let run file =
    let doc = Xml_parse.parse_file file in
    Format.printf "%a@." Pathstat.pp (Collector.collect doc);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Collect path statistics from a document")
    Term.(ret (const run $ doc_arg))

let validate_cmd =
  let run schema_name file =
    match schema_of_name schema_name with
    | Error m -> fail "%s" m
    | Ok schema -> (
        let doc = Xml_parse.parse_file file in
        match Validate.document schema doc with
        | Ok () ->
            print_endline "valid";
            `Ok ()
        | Error e ->
            fail "invalid: %s" (Format.asprintf "%a" Validate.pp_error e))
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a document against the schema")
    Term.(ret (const run $ schema_arg $ doc_arg))

let transforms_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Include every rewriting kind, not just inline/outline.")
  in
  let run schema_name sample config all =
    match schema_of_name schema_name with
    | Error m -> fail "%s" m
    | Ok schema -> (
        let stats = load_stats schema sample in
        match configuration schema stats config with
        | Error m -> fail "%s" m
        | Ok ps ->
            let kinds = if all then Space.all_kinds else Space.default_kinds in
            let steps = Space.applicable ~kinds ps in
            Format.printf "%d applicable transformations:@." (List.length steps);
            List.iter (fun s -> Format.printf "  %a@." Space.pp_step s) steps;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "transforms"
       ~doc:"List the schema transformations applicable to a configuration")
    Term.(ret (const run $ schema_arg $ sample_arg $ config_arg $ all))

(* Error hygiene: domain failures print one line on stderr and exit
   with a distinct code — no backtraces for expected failure modes.
     2  I/O (missing/unreadable file)
     3  configuration cannot be costed
     4  untranslatable query (also one a server refused to
        [query --connect])
     5  parse error (schema, query, or XML; also a query a server
        could not parse)
     6  shredding failure
     7  corrupt checkpoint snapshot (--resume refuses it; never a
        silent restart)
     8  corrupt store (serve --data-dir found a manifest, segment or
        WAL that is bit-flipped, truncated mid-file, wrong-version, or
        wrong-magic, or a directory of store format 1; recovery
        refuses to serve rather than guess)
     9  network/system failure (port already bound, connection refused,
        peer broke the frame protocol)
   130  interrupted (SIGINT; the best-so-far design is still printed,
        and with --checkpoint a final snapshot is written first)
   Flag-validation failures (--group-commit-ms < 0, malformed
   --connect, ...) are cmdliner one-liners with its usual code 124. *)
let () =
  let info =
    Cmd.info "legodb" ~version:"1.0.0"
      ~doc:"Cost-based XML-to-relational storage design (LegoDB)"
  in
  let group =
    Cmd.group info
      [
        design_cmd;
        serve_cmd;
        query_cmd;
        sql_cmd;
        shred_cmd;
        publish_cmd;
        generate_cmd;
        stats_cmd;
        validate_cmd;
        transforms_cmd;
      ]
  in
  let oneliner fmt = Printf.ksprintf (fun m -> prerr_endline ("legodb: " ^ m)) fmt in
  exit
    (try Cmd.eval ~catch:false group with
    | Search.Cost_error m ->
        oneliner "cannot cost this configuration: %s" m;
        3
    | Xq_translate.Untranslatable m ->
        oneliner "untranslatable query: %s" m;
        4
    | Unanswered code ->
        oneliner "the query was not answered";
        code
    | Xtype_parse.Parse_error { position; message } ->
        oneliner "schema parse error at offset %d: %s" position message;
        5
    | Xq_parse.Parse_error { position; message } ->
        oneliner "query parse error at offset %d: %s" position message;
        5
    | Xml_parse.Parse_error { position; message } ->
        oneliner "XML parse error at offset %d: %s" position message;
        5
    | Shred.Shred_error { path; message } ->
        oneliner "shredding failed at %s: %s" (String.concat "/" path) message;
        6
    | Checkpoint.Corrupt m ->
        oneliner "corrupt checkpoint: %s" m;
        7
    | Wal.Corrupt m ->
        oneliner "corrupt store: %s" m;
        8
    | Net.Protocol_error m ->
        oneliner "protocol error: %s" m;
        9
    | Net.Closed ->
        oneliner "connection closed by server";
        9
    | Unix.Unix_error (e, fn, arg) ->
        oneliner "network/system error: %s (%s %s)" (Unix.error_message e) fn
          arg;
        9
    | Sys_error m ->
        oneliner "%s" m;
        2)
