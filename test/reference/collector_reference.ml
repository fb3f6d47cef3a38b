(* Frozen reference: the statistics collector as it was before the path
   trie, kept verbatim apart from this comment and the [open].  The
   differential suite in test/test_load.ml holds {!Collector} to an
   equal {!Pathstat.t} on every document.  Do not "improve" this
   file. *)

open Legodb_stats

open Legodb_xml

type acc = {
  mutable count : int;
  mutable total_size : int;  (* sum of text widths, for averaging *)
  mutable text_count : int;
  mutable int_min : int option;
  mutable int_max : int option;
  mutable all_int : bool;
  values : (string, unit) Hashtbl.t;  (* distinct values, capped *)
  mutable saturated : bool;
}

let fresh_acc () =
  {
    count = 0;
    total_size = 0;
    text_count = 0;
    int_min = None;
    int_max = None;
    all_int = true;
    values = Hashtbl.create 16;
    saturated = false;
  }

let parse_int text =
  let cleaned =
    String.to_seq (String.trim text)
    |> Seq.filter (fun c -> c <> ',')
    |> String.of_seq
  in
  int_of_string_opt cleaned

let record_value cap acc v =
  acc.total_size <- acc.total_size + String.length v;
  acc.text_count <- acc.text_count + 1;
  (match parse_int v with
  | Some n ->
      acc.int_min <- Some (match acc.int_min with None -> n | Some m -> min m n);
      acc.int_max <- Some (match acc.int_max with None -> n | Some m -> max m n)
  | None -> acc.all_int <- false);
  if not acc.saturated then
    if Hashtbl.length acc.values >= cap then acc.saturated <- true
    else Hashtbl.replace acc.values v ()

let text_only node =
  match node with
  | Xml.Element (_, _, children) ->
      children <> []
      && List.for_all (function Xml.Text _ -> true | _ -> false) children
  | Xml.Text _ -> false

let collect ?(distinct_cap = 1_000_000) doc =
  let table : (string list, acc) Hashtbl.t = Hashtbl.create 64 in
  let get path =
    match Hashtbl.find_opt table path with
    | Some a -> a
    | None ->
        let a = fresh_acc () in
        Hashtbl.add table path a;
        a
  in
  let rec walk path node =
    match node with
    | Xml.Text _ -> ()
    | Xml.Element (tag, attrs, children) ->
        let path = path @ [ tag ] in
        let acc = get path in
        acc.count <- acc.count + 1;
        List.iter
          (fun (name, value) ->
            let apath = path @ [ name ] in
            let aacc = get apath in
            aacc.count <- aacc.count + 1;
            record_value distinct_cap aacc value)
          attrs;
        if text_only node then record_value distinct_cap acc (Xml.text_content node)
        else List.iter (walk path) children
  in
  walk [] doc;
  Hashtbl.fold
    (fun path acc stats ->
      let stats = Pathstat.add stats path (Pathstat.STcnt acc.count) in
      if acc.text_count = 0 then stats
      else
        let avg = acc.total_size / max 1 acc.text_count in
        let distinct =
          if acc.saturated then distinct_cap else Hashtbl.length acc.values
        in
        let stats = Pathstat.add stats path (Pathstat.STsize avg) in
        match (acc.all_int, acc.int_min, acc.int_max) with
        | true, Some lo, Some hi ->
            Pathstat.add stats path (Pathstat.STbase (lo, hi, distinct))
        | _ -> Pathstat.add stats path (Pathstat.STdistinct distinct))
    table Pathstat.empty
