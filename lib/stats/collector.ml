open Legodb_xml

(* One trie node per distinct path, reached from its parent by the
   path's last step.  An attribute and a child element with the same
   name share a node, as they share a path. *)
type node = {
  step : string;
  mutable kids : node list;
  mutable count : int;
  mutable total_size : int;  (* sum of text widths, for averaging *)
  mutable text_count : int;
  mutable int_min : int;  (* max_int and min_int until an integer *)
  mutable int_max : int;
  mutable all_int : bool;
  values : (string, unit) Hashtbl.t;  (* distinct values, capped *)
  mutable saturated : bool;
}

let fresh step =
  {
    step;
    kids = [];
    count = 0;
    total_size = 0;
    text_count = 0;
    int_min = max_int;
    int_max = min_int;
    all_int = true;
    values = Hashtbl.create 16;
    saturated = false;
  }

let rec find_kid step = function
  | k :: rest -> if String.equal k.step step then k else find_kid step rest
  | [] -> raise Not_found

let child node step =
  match find_kid step node.kids with
  | k -> k
  | exception Not_found ->
      let k = fresh step in
      node.kids <- k :: node.kids;
      k

let record_value cap acc v =
  acc.total_size <- acc.total_size + String.length v;
  acc.text_count <- acc.text_count + 1;
  (match Xml.int_of_text v with
  | Some n ->
      if n < acc.int_min then acc.int_min <- n;
      if n > acc.int_max then acc.int_max <- n
  | None -> acc.all_int <- false);
  if not acc.saturated then
    if Hashtbl.length acc.values >= cap then acc.saturated <- true
    else Hashtbl.replace acc.values v ()

let text_only children =
  children <> []
  && List.for_all (function Xml.Text _ -> true | _ -> false) children

let rec walk cap parent node =
  match node with
  | Xml.Text _ -> ()
  | Xml.Element (tag, attrs, children) ->
      let acc = child parent tag in
      acc.count <- acc.count + 1;
      walk_attrs cap acc attrs;
      if text_only children then record_value cap acc (Xml.text_content node)
      else walk_list cap acc children

and walk_attrs cap parent = function
  | [] -> ()
  | (name, value) :: rest ->
      let acc = child parent name in
      acc.count <- acc.count + 1;
      record_value cap acc value;
      walk_attrs cap parent rest

and walk_list cap parent = function
  | [] -> ()
  | node :: rest ->
      walk cap parent node;
      walk_list cap parent rest

let add_path cap path acc stats =
  let stats = Pathstat.add stats path (Pathstat.STcnt acc.count) in
  if acc.text_count = 0 then stats
  else
    let avg = acc.total_size / max 1 acc.text_count in
    let distinct = if acc.saturated then cap else Hashtbl.length acc.values in
    let stats = Pathstat.add stats path (Pathstat.STsize avg) in
    if acc.all_int && acc.int_min <= acc.int_max then
      Pathstat.add stats path
        (Pathstat.STbase (acc.int_min, acc.int_max, distinct))
    else Pathstat.add stats path (Pathstat.STdistinct distinct)

let collect ?(distinct_cap = 1_000_000) doc =
  let root = fresh "" in
  walk distinct_cap root doc;
  let rec emit rev_path node stats =
    List.fold_left
      (fun stats k ->
        let rev_path = k.step :: rev_path in
        emit rev_path k (add_path distinct_cap (List.rev rev_path) k stats))
      stats node.kids
  in
  emit [] root Pathstat.empty
