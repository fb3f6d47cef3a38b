type t = {
  seeks : float;
  pages_read : float;
  pages_written : float;
  cpu : float;
}

let zero = { seeks = 0.; pages_read = 0.; pages_written = 0.; cpu = 0. }

let add a b =
  {
    seeks = a.seeks +. b.seeks;
    pages_read = a.pages_read +. b.pages_read;
    pages_written = a.pages_written +. b.pages_written;
    cpu = a.cpu +. b.cpu;
  }

let scale k a =
  {
    seeks = k *. a.seeks;
    pages_read = k *. a.pages_read;
    pages_written = k *. a.pages_written;
    cpu = k *. a.cpu;
  }

let ( + ) = add

type params = {
  page_size : float;
  seek_weight : float;
  read_weight : float;
  write_weight : float;
  cpu_weight : float;
  memory_pages : float;
}

let default_params =
  {
    page_size = 8192.;
    seek_weight = 40.;
    read_weight = 1.;
    write_weight = 1.;
    cpu_weight = 0.002;
    memory_pages = 4096.;
  }

let pages p bytes = Float.max 1. (ceil (bytes /. p.page_size))

let total p c =
  (p.seek_weight *. c.seeks)
  +. (p.read_weight *. c.pages_read)
  +. (p.write_weight *. c.pages_written)
  +. (p.cpu_weight *. c.cpu)
