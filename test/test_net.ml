(* The network front door.  Three families of contracts:

   - the frame codec: request and response frames round-trip
     bit-exactly, and any single bit flip, truncation, or garbage
     prefix of a frame is rejected at the framing layer — never parsed
     as a different message;

   - the server: answers over TCP are bit-identical to the in-process
     [Serve.run_batch] path (concurrent clients included), pipelined
     appends share commit groups with one fsync each, per-request
     timeouts and bad requests poison only their own slot, and a
     malformed frame costs its connection exactly one structured error
     and a clean close — the server keeps serving everyone else;

   - the client: pipelined sends match responses positionally, and a
     peer that breaks the protocol surfaces as [Closed] or
     [Protocol_error], never a hang or a crash.

   The server under test runs in a [Thread] on an ephemeral port; its
   select loop blocks outside the runtime lock, so client threads make
   progress on every OCaml version the CI builds.  On a 4.14 build the
   server thread is the only thread mutating [Serve] state, so every
   in-process reference computation below is sequenced strictly after
   the server thread is joined. *)

open Legodb
open Test_util

let prop name ?(count = 30) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let tmp_dir () =
  let d = Filename.temp_file "legodb_net" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let setup () =
  let doc = Lazy.force small_imdb_doc in
  let stats = Collector.collect doc in
  let ps = Init.all_inlined (Annotate.schema stats Imdb.Schema.schema) in
  let m = mapping_of ps in
  (doc, m)

(* the queries travel as source text and are parsed server-side; the
   same texts parsed here are the in-process reference *)
let q_texts =
  [
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1990 RETURN \
     $v/title, $v/year";
    "FOR $v IN document(\"x\")/imdb/actor RETURN $v/name";
    "FOR $i IN document(\"x\")/imdb $a in $i/actor, $m1 in $a/played RETURN \
     $a/name, $m1/title";
  ]

let q_asts = List.map (Xq_parse.parse ~name:"net") q_texts

(* ------------------------------------------------------------------ *)
(* harness: a served corpus on an ephemeral port, in a thread          *)
(* ------------------------------------------------------------------ *)

let run_server ?group_commit_ms ?max_group ?idle_timeout_ms ?max_conns
    ?timeout_ms ?max_write ?net_out server f =
  let stop = ref false in
  let port = ref None in
  let failure = ref None in
  let th =
    Thread.create
      (fun () ->
        try
          let net =
            Net.serve ?group_commit_ms ?max_group ?idle_timeout_ms ?max_conns
              ?timeout_ms ?max_write ~stop
              ~on_listen:(fun p -> port := Some p)
              ~port:0 server
          in
          (* the loop's final counters, visible once [halt] has joined *)
          Option.iter (fun r -> r := net) net_out
        with e -> failure := Some e)
      ()
  in
  let halt () =
    stop := true;
    Thread.join th;
    match !failure with
    | Some e -> Alcotest.failf "server thread died: %s" (Printexc.to_string e)
    | None -> ()
  in
  let rec await n =
    match !port with
    | Some p -> p
    | None ->
        if !failure <> None || n > 500 then begin
          halt ();
          Alcotest.fail "server never listened"
        end
        else begin
          Thread.delay 0.01;
          await (n + 1)
        end
  in
  let p = await 0 in
  let r = match f p with r -> Ok r | exception e -> Error e in
  halt ();
  match r with Ok r -> r | Error e -> raise e

let with_client port f =
  let c = Net.connect ~port () in
  Fun.protect ~finally:(fun () -> Net.close c) (fun () -> f c)

(* [f ()] on a thread of its own, failing the test unless it returns
   within [seconds]: a server thread that dies leaves its sockets open,
   so a client awaiting its answer would otherwise block forever *)
let within seconds f =
  let result = ref None in
  ignore
    (Thread.create
       (fun () ->
         result := Some (match f () with r -> Ok r | exception e -> Error e))
       ());
  let rec wait n =
    match !result with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None ->
        if n = 0 then Alcotest.failf "no answer within %gs" seconds
        else begin
          Thread.delay 0.01;
          wait (n - 1)
        end
  in
  wait (int_of_float (seconds *. 100.))

let expect_rows name = function
  | Net.Rows { rows; _ } -> rows
  | Net.Error_reply m -> Alcotest.failf "%s: error reply: %s" name m
  | _ -> Alcotest.failf "%s: unexpected response kind" name

let expect_error name = function
  | Net.Error_reply m -> m
  | _ -> Alcotest.failf "%s: expected an error reply" name

let expect_stats name = function
  | Net.Stats_reply { serve; _ } -> serve
  | _ -> Alcotest.failf "%s: expected a stats reply" name

let expect_net_stats name = function
  | Net.Stats_reply { net; _ } -> net
  | _ -> Alcotest.failf "%s: expected a stats reply" name

(* ------------------------------------------------------------------ *)
(* suite                                                               *)
(* ------------------------------------------------------------------ *)

let suite =
  [
    case "ping, stats, and a query answered over TCP" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let rows =
          run_server server (fun port ->
              with_client port (fun c ->
                  (match Net.rpc c Net.Ping with
                  | Net.Pong -> ()
                  | _ -> Alcotest.fail "expected pong");
                  let rows =
                    expect_rows "query"
                      (Net.rpc c (Net.Query (List.hd q_texts)))
                  in
                  let s = expect_stats "stats" (Net.rpc c Net.Stats) in
                  check_bool "request counted" true (s.Serve.served >= 1);
                  rows))
        in
        (* reference computed after the server thread is joined *)
        let local = (Serve.query server (List.hd q_asts)).Serve.rows in
        check_bool "network answer non-trivial" true (rows <> []);
        check_bool "bit-identical to the in-process path" true (rows = local));
    case "concurrent clients get answers bit-identical to run_batch"
      (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let texts = Array.of_list q_texts in
        let per_client = 9 in
        let n_clients = 4 in
        let answers =
          run_server server (fun port ->
              let results = Array.make n_clients [||] in
              let client k =
                with_client port (fun c ->
                    results.(k) <-
                      Array.init per_client (fun i ->
                          Net.rpc c
                            (Net.Query texts.((k + i) mod Array.length texts))))
              in
              let ths =
                Array.init n_clients (fun k -> Thread.create client k)
              in
              Array.iter Thread.join ths;
              results)
        in
        let reference =
          Serve.run_batch server (Array.of_list q_asts)
          |> Array.map (function
               | Ok (r : Serve.reply) -> r.Serve.rows
               | Error e -> Alcotest.failf "reference failed: %s" e)
        in
        Array.iteri
          (fun k per ->
            check_int (Printf.sprintf "client %d answered" k) per_client
              (Array.length per);
            Array.iteri
              (fun i resp ->
                let rows = expect_rows (Printf.sprintf "c%d q%d" k i) resp in
                check_bool
                  (Printf.sprintf "client %d request %d bit-identical" k i)
                  true
                  (rows = reference.((k + i) mod Array.length reference)))
              per)
          answers);
    case "pipelined appends share commit groups, one fsync per group"
      (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let server =
          Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc)
        in
        let text = Xml.to_string doc in
        (* max_group 4 under a wide deadline: flushes trigger on size
           alone, so the grouping is deterministic however the reads
           split — 8 pipelined appends, exactly 2 groups of 4 *)
        run_server ~group_commit_ms:10_000 ~max_group:4 server (fun port ->
            with_client port (fun c ->
                for _ = 1 to 8 do
                  Net.send c (Net.Append text)
                done;
                for i = 1 to 8 do
                  match Net.recv c with
                  | Net.Acked -> ()
                  | Net.Error_reply m ->
                      Alcotest.failf "append %d rejected: %s" i m
                  | _ -> Alcotest.failf "append %d: unexpected response" i
                done;
                let s = expect_stats "stats" (Net.rpc c Net.Stats) in
                check_int "appends acked" 8 s.Serve.wal_appends;
                check_int "in two groups" 2 s.Serve.wal_groups;
                check_int "one fsync each" 2 s.Serve.wal_fsyncs;
                check_int "of four appends" 4 s.Serve.wal_max_group;
                check_int "all pending" 8 s.Serve.pending_appends));
        (* the groups are real commits: a fresh process recovers all 8 *)
        let recovered, r = Serve.recover ~jobs:1 ~dir () in
        check_int "every acked append recovered" 8 r.Serve.r_replayed;
        check_int "as pending appends" 8
          (Serve.stats recovered).Serve.pending_appends;
        rm_rf dir);
    case "publish over the network flushes the open group first" (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let server =
          Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc)
        in
        let text = Xml.to_string doc in
        run_server ~group_commit_ms:10_000 ~max_group:64 server (fun port ->
            with_client port (fun c ->
                (* the appends sit in the open group (the deadline is
                   far, max_group farther) until the pipelined publish
                   arrives and must commit them before the barrier *)
                Net.send c (Net.Append text);
                Net.send c (Net.Append text);
                Net.send c Net.Publish;
                (match (Net.recv c, Net.recv c, Net.recv c) with
                | Net.Acked, Net.Acked, Net.Published -> ()
                | _ -> Alcotest.fail "expected acked, acked, published");
                let s = expect_stats "stats" (Net.rpc c Net.Stats) in
                check_int "one group of two" 2 s.Serve.wal_max_group;
                check_int "nothing pending" 0 s.Serve.pending_appends;
                check_int "one publish" 1 s.Serve.snapshots_published));
        rm_rf dir);
    case "per-request timeout degrades to an error slot over TCP" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        (* a zero budget trips at the first plan-block boundary under
           the real clock: deterministic, no sleeping *)
        run_server ~timeout_ms:0 server (fun port ->
            with_client port (fun c ->
                let m1 =
                  expect_error "query"
                    (Net.rpc c (Net.Query (List.hd q_texts)))
                in
                check_bool "names the timeout" true (contains m1 "timeout");
                (* the connection — and the server — survive it *)
                match Net.rpc c Net.Ping with
                | Net.Pong -> ()
                | _ -> Alcotest.fail "expected pong after the timeout")));
    case "bad requests poison only their own slot" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        run_server server (fun port ->
            within 20. (fun () ->
                with_client port (fun c ->
                    (* one pipelined round: good, unparsable, untranslatable,
                       bad XML, a surrogate character reference, good —
                       answered positionally *)
                    Net.send c (Net.Query (List.hd q_texts));
                    Net.send c (Net.Query "THIS IS NOT XQUERY ((");
                    Net.send c (Net.Query "FOR $v in imdb/nothing RETURN $v");
                    Net.send c (Net.Append "<unclosed");
                    Net.send c (Net.Append "<imdb>&#xD800;</imdb>");
                    Net.send c (Net.Query (List.hd q_texts));
                    let r1 = Net.recv c in
                    let e2 = expect_error "unparsable" (Net.recv c) in
                    let e3 = expect_error "untranslatable" (Net.recv c) in
                    let e4 = expect_error "bad xml" (Net.recv c) in
                    let e5 = expect_error "surrogate reference" (Net.recv c) in
                    let r6 = Net.recv c in
                    check_bool "parse error named" true (contains e2 "parse");
                    check_bool "untranslatable named" true
                      (contains e3 "untranslatable");
                    check_bool "XML error named" true (contains e4 "XML");
                    check_bool "reference error named" true
                      (contains e5 "XML" && contains e5 "&#xD800;");
                    let rows1 = expect_rows "first" r1 in
                    let rows6 = expect_rows "last" r6 in
                    check_bool "answer non-trivial" true (rows1 <> []);
                    check_bool "neighbors answered identically" true
                      (rows1 = rows6)));
            (* the same server still serves a new connection *)
            with_client port (fun c ->
                match Net.rpc c Net.Ping with
                | Net.Pong -> ()
                | _ -> Alcotest.fail "expected pong after the bad append")));
    case "a corrupt frame: one error reply, clean close, server survives"
      (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        run_server server (fun port ->
            (* a flipped bit inside an otherwise valid frame *)
            with_client port (fun victim ->
                let frame =
                  Bytes.of_string
                    (Net.encode_request (Net.Query (List.hd q_texts)))
                in
                let i = Bytes.length frame - 2 in
                Bytes.set frame i
                  (Char.chr (Char.code (Bytes.get frame i) lxor 0x10));
                Net.send_raw victim (Bytes.to_string frame);
                let m1 = expect_error "flipped bit" (Net.recv victim) in
                check_bool "names the defect" true
                  (contains m1 "checksum" || contains m1 "malformed"
                 || contains m1 "magic");
                match Net.recv victim with
                | exception Net.Closed -> ()
                | exception Net.Protocol_error _ -> ()
                | _ -> Alcotest.fail "expected a clean disconnect");
            (* a garbage greeting: same contract, different defect *)
            with_client port (fun victim ->
                Net.send_raw victim "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
                let _ = expect_error "garbage" (Net.recv victim) in
                match Net.recv victim with
                | exception Net.Closed -> ()
                | exception Net.Protocol_error _ -> ()
                | _ -> Alcotest.fail "expected a clean disconnect");
            (* a client that dies mid-frame costs nothing *)
            let half = Net.connect ~port () in
            Net.send_raw half (String.sub (Net.encode_request Net.Ping) 0 5);
            Net.close half;
            (* other connections never noticed any of it *)
            with_client port (fun c ->
                let rows =
                  expect_rows "after the abuse"
                    (Net.rpc c (Net.Query (List.hd q_texts)))
                in
                check_bool "still serving" true (rows <> []))));
    case "a pipelined burst is answered as one shared batch" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let net_final = ref Net.net_stats_zero in
        let answers =
          run_server ~net_out:net_final server (fun port ->
              with_client port (fun c ->
                  (* all eight query frames land in one write, so the
                     server reads them in one tick and fans them out as
                     one run_batch *)
                  let blob =
                    String.concat ""
                      (List.init 8 (fun i ->
                           Net.encode_request
                             (Net.Query (List.nth q_texts (i mod 3)))))
                  in
                  Net.send_raw c blob;
                  List.init 8 (fun i ->
                      expect_rows (Printf.sprintf "q%d" i) (Net.recv c))))
        in
        let reference =
          List.map (fun ast -> (Serve.query server ast).Serve.rows) q_asts
        in
        List.iteri
          (fun i rows ->
            check_bool
              (Printf.sprintf "answer %d bit-identical" i)
              true
              (rows = List.nth reference (i mod 3)))
          answers;
        let net = !net_final in
        check_int "all eight were batched" 8 net.Net.batched_queries;
        check_bool "a shared batch formed" true (Net.shared_batches net >= 1);
        check_bool "histogram mass above 1" true (net.Net.max_batch >= 2);
        check_bool "run_batch saw the shared batch" true
          ((Serve.stats server).Serve.max_batch >= 2));
    case "multi-frame large payloads round-trip bit-exactly" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        (* request side: one append whose frame spans >= 4 read chunks *)
        let rec big_xml scale =
          let text =
            Xml.to_string
              (Imdb.Gen.generate
                 { (Imdb.Gen.scaled scale) with Imdb.Gen.seed = 7 })
          in
          if String.length text >= 4 * 65536 then text else big_xml (scale *. 2.)
        in
        let xml = big_xml 0.01 in
        (* response side: enough pipelined answers that the client's
           receive buffer spans >= 4 read chunks in one drain *)
        let q = List.nth q_asts 1 in
        let expected = (Serve.query server q).Serve.rows in
        let resp_len =
          String.length
            (Net.encode_response (Net.Rows { rows = expected; cached = false }))
        in
        let k = (4 * 65536 / resp_len) + 1 in
        run_server server (fun port ->
            with_client port (fun c ->
                (match Net.rpc c (Net.Append xml) with
                | Net.Acked -> ()
                | Net.Error_reply m ->
                    Alcotest.failf "large append rejected: %s" m
                | _ -> Alcotest.fail "large append: unexpected response");
                for _ = 1 to k do
                  Net.send c (Net.Query (List.nth q_texts 1))
                done;
                for i = 1 to k do
                  let rows =
                    expect_rows (Printf.sprintf "big drain %d" i) (Net.recv c)
                  in
                  check_bool
                    (Printf.sprintf "pipelined answer %d bit-identical" i)
                    true (rows = expected)
                done));
        check_bool "the append frame spans reads" true
          (String.length (Net.encode_request (Net.Append xml)) >= 4 * 65536);
        check_bool "the pipelined responses span reads" true
          (k * resp_len >= 4 * 65536));
    case "injected short writes deliver every response bit-exactly" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let answers =
          (* every server write moves at most 64 bytes, so each frame
             crosses many partial writes and ticks *)
          run_server ~max_write:64 server (fun port ->
              with_client port (fun c ->
                  Net.send c Net.Ping;
                  for _ = 1 to 5 do
                    Net.send c (Net.Query (List.hd q_texts))
                  done;
                  (match Net.recv c with
                  | Net.Pong -> ()
                  | _ -> Alcotest.fail "expected pong first");
                  List.init 5 (fun i ->
                      expect_rows (Printf.sprintf "short-write %d" i)
                        (Net.recv c))))
        in
        let local = (Serve.query server (List.hd q_asts)).Serve.rows in
        check_bool "answers non-trivial" true (local <> []);
        List.iteri
          (fun i rows ->
            check_bool
              (Printf.sprintf "tail preserved bit-exactly (response %d)" i)
              true (rows = local))
          answers);
    case "a slow reader buffers across ticks while others are served"
      (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let n_slow = 40 in
        let slow_answers =
          (* 1 KiB per write: the slow connection's 40 pipelined answers
             sit in its output buffer across many ticks, and the second
             connection must keep being served meanwhile *)
          run_server ~max_write:1024 server (fun port ->
              let slow = Net.connect ~port () in
              Fun.protect ~finally:(fun () -> Net.close slow) @@ fun () ->
              for _ = 1 to n_slow do
                Net.send slow (Net.Query (List.nth q_texts 1))
              done;
              with_client port (fun b ->
                  for i = 1 to 10 do
                    match Net.rpc b Net.Ping with
                    | Net.Pong -> ()
                    | _ ->
                        Alcotest.failf
                          "connection starved behind the slow reader (ping %d)"
                          i
                  done);
              List.init n_slow (fun i ->
                  expect_rows (Printf.sprintf "slow %d" i) (Net.recv slow)))
        in
        let local = (Serve.query server (List.nth q_asts 1)).Serve.rows in
        List.iteri
          (fun i rows ->
            check_bool
              (Printf.sprintf "slow answer %d bit-identical, in order" i)
              true (rows = local))
          slow_answers);
    case "idle connections are reaped, busy and owed ones are not" (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let net_final = ref Net.net_stats_zero in
        run_server ~idle_timeout_ms:60 ~net_out:net_final server (fun port ->
            with_client port (fun busy ->
                (* a connection that keeps moving bytes outlives many
                   idle windows *)
                let until = Unix.gettimeofday () +. 0.25 in
                while Unix.gettimeofday () < until do
                  (match Net.rpc busy Net.Ping with
                  | Net.Pong -> ()
                  | _ -> Alcotest.fail "busy connection broke");
                  Thread.delay 0.01
                done);
            let idle = Net.connect ~port () in
            Fun.protect ~finally:(fun () -> Net.close idle) @@ fun () ->
            (match Net.rpc idle Net.Ping with
            | Net.Pong -> ()
            | _ -> Alcotest.fail "expected pong");
            Thread.delay 0.3;
            match Net.recv idle with
            | exception Net.Closed -> ()
            | exception Net.Protocol_error _ -> ()
            | _ -> Alcotest.fail "expected the idle connection reaped");
        check_bool "the reap was counted" true
          (!net_final.Net.idle_reaped >= 1));
    case "the listener parks at max-conns and resumes as slots free"
      (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let net_final = ref Net.net_stats_zero in
        run_server ~max_conns:2 ~net_out:net_final server (fun port ->
            let c1 = Net.connect ~port () in
            let c2 = Net.connect ~port () in
            (match (Net.rpc c1 Net.Ping, Net.rpc c2 Net.Ping) with
            | Net.Pong, Net.Pong -> ()
            | _ -> Alcotest.fail "expected pongs at capacity");
            (* the third peer's handshake completes in the kernel
               backlog, but the parked listener never accepts it *)
            let c3 = Net.connect ~port () in
            Fun.protect ~finally:(fun () -> Net.close c3) @@ fun () ->
            Net.send c3 Net.Ping;
            Thread.delay 0.1;
            let net = expect_net_stats "stats" (Net.rpc c1 Net.Stats) in
            check_int "only two accepted while full" 2 net.Net.accepted;
            check_bool "the full house was counted" true
              (net.Net.at_capacity >= 1);
            Net.close c1;
            Net.close c2;
            (* with slots free the backlogged peer is accepted and its
               buffered ping answered *)
            match Net.recv c3 with
            | Net.Pong -> ()
            | _ -> Alcotest.fail "expected pong once a slot freed");
        check_int "the third peer was eventually accepted" 3
          !net_final.Net.accepted);
    case "interleaved multi-connection traffic keeps per-connection order"
      (fun () ->
        let doc, m = setup () in
        let server = Serve.create ~jobs:2 m (Shred.shred m doc) in
        let texts = Array.of_list q_texts in
        let expected =
          Array.of_list
            (List.map (fun ast -> (Serve.query server ast).Serve.rows) q_asts)
        in
        run_server server (fun port ->
            (* each connection runs its own random script; rounds
               interleave the sends across connections before any
               response is read, so the server sees them mixed — every
               connection must still get the sequential client's
               answers in its own request order *)
            let gen =
              QCheck2.Gen.(
                list_size (int_range 1 4)
                  (list_size (int_range 0 6)
                     (int_range 0 (Array.length texts - 1))))
            in
            QCheck2.Test.check_exn
              (QCheck2.Test.make ~name:"per-connection order" ~count:15 gen
                 (fun scripts ->
                   let conns =
                     List.map (fun _ -> Net.connect ~port ()) scripts
                   in
                   Fun.protect
                     ~finally:(fun () -> List.iter Net.close conns)
                     (fun () ->
                       let rounds =
                         List.fold_left
                           (fun acc s -> max acc (List.length s))
                           0 scripts
                       in
                       for r = 0 to rounds - 1 do
                         List.iter2
                           (fun c s ->
                             match List.nth_opt s r with
                             | Some qi -> Net.send c (Net.Query texts.(qi))
                             | None -> ())
                           conns scripts
                       done;
                       List.for_all2
                         (fun c s ->
                           List.for_all
                             (fun qi ->
                               match Net.recv c with
                               | Net.Rows { rows; _ } -> rows = expected.(qi)
                               | _ -> false)
                             s)
                         conns scripts)))));
    case "a pipelined query is answered before a later publish" (fun () ->
        (* one write of [query q; append d; publish; query q], where d
           adds the only actor q names: the first answer precedes the
           append, so it is empty — whether the replay cache has seen q
           (warm) or not (cold) — and the second follows the publish *)
        let name = "Zed Pipelined" in
        let q =
          Printf.sprintf
            "FOR $a IN document(\"imdb\")/imdb/actor WHERE $a/name = \"%s\" \
             RETURN $a/name"
            name
        in
        let d =
          Xml.to_string
            (Xml.elem "imdb" [ Xml.elem "actor" [ Xml.leaf "name" name ] ])
        in
        List.iter
          (fun warm ->
            let what = if warm then "warm" else "cold" in
            let doc, m = setup () in
            let server = Serve.create ~jobs:1 m (Shred.shred m doc) in
            run_server server (fun port ->
                with_client port (fun c ->
                    if warm then
                      check_int (what ^ ": before") 0
                        (List.length
                           (expect_rows "warm-up" (Net.rpc c (Net.Query q))));
                    Net.send_raw c
                      (String.concat ""
                         (List.map Net.encode_request
                            [
                              Net.Query q;
                              Net.Append d;
                              Net.Publish;
                              Net.Query q;
                            ]));
                    let first = expect_rows "first" (Net.recv c) in
                    (match (Net.recv c, Net.recv c) with
                    | Net.Acked, Net.Published -> ()
                    | _ -> Alcotest.failf "%s: expected acked, published" what);
                    let second = expect_rows "second" (Net.recv c) in
                    check_int (what ^ ": the query before the append") 0
                      (List.length first);
                    check_int (what ^ ": the query after the publish") 1
                      (List.length second))))
          [ false; true ]);
    case "a fresh answer's frame is the frame replayed for its text"
      (fun () ->
        (* the first statement of a template compiles its plan; the
           second, another constant, runs the cached plan (cached =
           true) and is fresh to the replay cache, which then answers
           its repeat: the client must receive the same bytes *)
        let doc, m = setup () in
        let server = Serve.create ~jobs:1 m (Shred.shred m doc) in
        let year k =
          Printf.sprintf
            "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = %d RETURN \
             $v/title, $v/year"
            k
        in
        run_server server (fun port ->
            with_client port (fun c ->
                ignore
                  (expect_rows "compile" (Net.rpc c (Net.Query (year 1990))));
                Net.send c (Net.Query (year 1991));
                let fresh = Net.recv_raw c in
                (match Net.decode_response fresh with
                | Net.Rows { cached = true; _ } -> ()
                | _ -> Alcotest.fail "expected rows from the cached plan");
                Net.send c (Net.Query (year 1991));
                let replayed = Net.recv_raw c in
                check_string "the same payload, so the same frame" fresh
                  replayed;
                let net = expect_net_stats "stats" (Net.rpc c Net.Stats) in
                check_int "the repeat was replayed" 1 net.Net.replayed)));
    case "a pipelined round of texts answers with the parse path's bytes"
      (fun () ->
        (* one write: a served statement with another constant, a lexer
           error, a grammar error, a NUL in a comment and one outside,
           a comment holding [= "x"], and a re-spaced, re-cased spelling
           of the warm-up statement.  Every frame must be the one the
           front door sent when it parsed each text itself (frozen
           parser, then run_batch), and no text may compile again *)
        let doc, m = setup () in
        let warm = List.hd q_texts in
        let round =
          [
            "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1991 \
             RETURN $v/title, $v/year";
            "FOR $v IN document(\"x\")/imdb/show WHERE $v/title = \"open \
             RETURN $v";
            "FOR $v IN document(\"x\")/imdb/show WHERE RETURN $v";
            "FOR $v IN document(\"x\")/imdb/show (: \000 :) WHERE $v/year = \
             1990 RETURN $v/title, $v/year";
            "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1990 \
             RETURN $v/title, $v/year\000";
            "FOR $v IN document(\"x\")/imdb/show (: $v/year = \"x\" :) \
             WHERE $v/year = 1990 RETURN $v/title, $v/year";
            "for   $v in document(\"x\")/imdb/show\n  Where $v/year =1990\n\
            \  return $v/title ,$v/year";
          ]
        in
        let server = Serve.create ~jobs:1 m (Shred.shred m doc) in
        let frames, misses =
          run_server server (fun port ->
              with_client port (fun c ->
                  ignore (expect_rows "warm-up" (Net.rpc c (Net.Query warm)));
                  Net.send_raw c
                    (String.concat ""
                       (List.map
                          (fun t -> Net.encode_request (Net.Query t))
                          round));
                  let frames = List.map (fun _ -> Net.recv_raw c) round in
                  let s = expect_stats "stats" (Net.rpc c Net.Stats) in
                  (frames, s.Serve.cache_misses)))
        in
        (* the front door as it was: parse each text, error replies for
           the unparsable, one run_batch for the rest *)
        let reference = Serve.create ~jobs:1 m (Shred.shred m doc) in
        let parsed =
          List.map
            (fun t ->
              match Xq_parse_reference.parse ~name:"net" t with
              | q -> Ok q
              | exception Xq_parse_reference.Parse_error { position; message }
                ->
                  Error
                    (Printf.sprintf "query parse error at offset %d: %s"
                       position message))
            round
        in
        ignore
          (Serve.run_batch reference [| Xq_parse.parse ~name:"net" warm |]);
        let answers =
          ref
            (Array.to_list
               (Serve.run_batch reference
                  (Array.of_list
                     (List.filter_map Result.to_option parsed))))
        in
        let payload frame =
          match Net.extract_frame (Iobuf.of_string frame) with
          | `Frame p -> p
          | _ -> Alcotest.fail "a response did not frame"
        in
        let expected =
          List.map
            (fun p ->
              payload @@ Net.encode_response
                (match p with
                | Error m -> Net.Error_reply m
                | Ok _ -> (
                    let r = List.hd !answers in
                    answers := List.tl !answers;
                    match r with
                    | Ok (r : Serve.reply) ->
                        Net.Rows
                          { rows = r.Serve.rows; cached = r.Serve.cached }
                    | Error m -> Net.Error_reply m)))
            parsed
        in
        check_int "four texts parse" 4
          (List.length (List.filter Result.is_ok parsed));
        List.iteri
          (fun i (want, got) ->
            check_string (Printf.sprintf "answer %d's bytes" i) want got)
          (List.combine expected frames);
        check_int "one compile, at the warm-up" 1 misses;
        check_int "as the parse path" 1
          (Serve.stats reference).Serve.cache_misses);
  ]

(* ------------------------------------------------------------------ *)
(* properties: the frame codec under fuzzing                           *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        return Rtype.V_null;
        map (fun n -> Rtype.V_int n) int;
        map
          (fun s -> Rtype.V_string s)
          (string_size ~gen:char (int_range 0 12));
      ])

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Net.Query s) (string_size ~gen:char (int_range 0 64));
        map (fun s -> Net.Append s) (string_size ~gen:char (int_range 0 64));
        return Net.Publish;
        return Net.Stats;
        return Net.Ping;
      ])

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun rows cached -> Net.Rows { rows; cached })
          (list_size (int_range 0 5) (list_size (int_range 0 4) gen_value))
          bool;
        return Net.Acked;
        return Net.Published;
        map3
          (fun serve_ints net_ints (hist, (select_s, work_s)) ->
            match (serve_ints, net_ints) with
            | ( [ a; b; c; d; e; f; g; h; i; j; k; l ],
                [
                  ticks;
                  batches;
                  batched_queries;
                  max_batch;
                  replayed;
                  bytes_in;
                  bytes_out;
                  accepted;
                  idle_reaped;
                  at_capacity;
                ] ) ->
                Net.Stats_reply
                  {
                    serve =
                      {
                        Serve.served = a;
                        cache_hits = b;
                        cache_misses = c;
                        snapshot_rows = d;
                        snapshots_published = e;
                        pending_appends = f;
                        wal_appends = g;
                        wal_fsyncs = h;
                        wal_groups = i;
                        wal_max_group = j;
                        batches = k;
                        max_batch = l;
                      };
                    net =
                      {
                        Net.ticks;
                        batches;
                        batched_queries;
                        batch_hist = Array.of_list hist;
                        max_batch;
                        replayed;
                        bytes_in;
                        bytes_out;
                        select_s;
                        work_s;
                        accepted;
                        idle_reaped;
                        at_capacity;
                      };
                  }
            | _ -> assert false)
          (list_repeat 12 (int_range 0 1_000_000))
          (list_repeat 10 (int_range 0 1_000_000))
          (pair
             (list_repeat Net.hist_buckets (int_range 0 1_000_000))
             (pair (float_bound_inclusive 1000.) (float_bound_inclusive 1000.)));
        return Net.Pong;
        map
          (fun s -> Net.Error_reply s)
          (string_size ~gen:char (int_range 0 64));
      ])

let flip_bit s pos bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

(* the streaming extractor over a buffer holding exactly [bytes], as
   the server's and the client's read paths drive it *)
let extract bytes = Net.extract_frame (Iobuf.of_string bytes)

(* decode one frame as the peer does: the frame must be whole, and
   extracting it must leave nothing behind in the buffer *)
let decode_frame decode bytes =
  let buf = Iobuf.of_string bytes in
  match Net.extract_frame buf with
  | `Frame payload when Iobuf.is_empty buf -> Some (decode payload)
  | _ -> None

let prop_request_roundtrip =
  prop "request frames round-trip bit-exactly" ~count:100 gen_request
    (fun r ->
      let bytes = Net.encode_request r in
      match decode_frame Net.decode_request bytes with
      | Some r' -> r = r' && String.equal (Net.encode_request r') bytes
      | None -> false)

let prop_response_roundtrip =
  prop "response frames round-trip bit-exactly" ~count:100 gen_response
    (fun r ->
      let bytes = Net.encode_response r in
      match decode_frame Net.decode_response bytes with
      | Some r' -> r = r' && String.equal (Net.encode_response r') bytes
      | None -> false)

let prop_bit_flip =
  prop "any single bit flip of a frame is rejected, never re-parsed"
    ~count:200
    QCheck2.Gen.(triple gen_request (int_range 0 1_000_000) (int_range 0 7))
    (fun (r, pos, bit) ->
      let bytes = Net.encode_request r in
      let flipped = flip_bit bytes (pos mod String.length bytes) bit in
      match extract flipped with
      | `Broken _ -> true
      | `Partial -> true (* a grown length field: the peer times out *)
      | `Frame _ -> false)

let prop_truncation =
  prop "every strict prefix of a frame is Partial — wait, never guess"
    ~count:100
    QCheck2.Gen.(pair gen_request (int_range 0 1_000_000))
    (fun (r, cut) ->
      let bytes = Net.encode_request r in
      let prefix = String.sub bytes 0 (cut mod String.length bytes) in
      match extract prefix with `Partial -> true | _ -> false)

let prop_garbage_prefix =
  prop "a garbage prefix never yields a parsed frame" ~count:100
    QCheck2.Gen.(pair (string_size ~gen:char (int_range 1 40)) gen_request)
    (fun (garbage, r) ->
      match extract (garbage ^ Net.encode_request r) with
      | `Broken _ | `Partial -> true
      | `Frame _ -> false)

let props =
  [
    prop_request_roundtrip;
    prop_response_roundtrip;
    prop_bit_flip;
    prop_truncation;
    prop_garbage_prefix;
  ]
