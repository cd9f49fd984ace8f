//! Client transports: TCP and in-process.
//!
//! Both speak exactly the same line protocol — the in-process
//! [`Client::local`] serializes the request to JSON and parses the
//! reply back, so a test that passes locally exercises the same codec a
//! remote client does, minus the socket.

use crate::proto::{Command, Reply, Request};
use crate::service::ServeCore;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[derive(Debug)]
enum Transport {
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    Local(Arc<ServeCore>),
}

/// A blocking request/reply client.
#[derive(Debug)]
pub struct Client {
    transport: Transport,
    next_id: u64,
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects over TCP.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            transport: Transport::Tcp {
                reader: BufReader::new(stream),
                writer,
            },
            next_id: 1,
        })
    }

    /// Attaches in-process to a service core.
    #[must_use]
    pub fn local(core: Arc<ServeCore>) -> Client {
        Client {
            transport: Transport::Local(core),
            next_id: 1,
        }
    }

    /// Sends one command and waits for its reply.
    pub fn request(&mut self, cmd: Command) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = serde_json::to_string(&Request { id, cmd })
            .map_err(|e| bad_data(format!("request render failed: {e}")))?;
        let out = match &mut self.transport {
            Transport::Tcp { reader, writer } => {
                // One write per line: the socket is TCP_NODELAY, so a
                // separate newline write would go out as its own segment.
                line.push('\n');
                writer.write_all(line.as_bytes())?;
                writer.flush()?;
                let mut out = String::new();
                if reader.read_line(&mut out)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                out
            }
            Transport::Local(core) => core.handle_line(&line),
        };
        let reply: Reply = serde_json::from_str(out.trim())
            .map_err(|e| bad_data(format!("bad reply line: {e}")))?;
        if reply.id != id && reply.id != 0 {
            return Err(bad_data(format!(
                "reply id {} does not match request id {id}",
                reply.id
            )));
        }
        Ok(reply)
    }
}
