//! Image container used by the convolution and histogram-equalization labs.

use crate::{Result, WbError};

/// An image with `channels` interleaved float samples per pixel.
///
/// Values are conventionally in `[0, 1]`; the equalization lab converts
/// to `u8` levels internally, as the CUDA original does.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    channels: usize,
    data: Vec<f32>,
}

impl Image {
    /// Create an image from raw interleaved data.
    ///
    /// Fails when `data.len() != width * height * channels`, when that
    /// product overflows, or when `channels == 0`.
    pub fn from_data(width: usize, height: usize, channels: usize, data: Vec<f32>) -> Result<Self> {
        if channels == 0 {
            return Err(WbError::Invalid(
                "image must have at least 1 channel".into(),
            ));
        }
        let expected = width
            .checked_mul(height)
            .and_then(|n| n.checked_mul(channels))
            .ok_or_else(|| {
                WbError::Shape(format!("image {width}x{height}x{channels} overflows"))
            })?;
        if data.len() != expected {
            return Err(WbError::Shape(format!(
                "image {width}x{height}x{channels} needs {expected} samples, got {}",
                data.len()
            )));
        }
        Ok(Image {
            width,
            height,
            channels,
            data,
        })
    }

    /// A zero-filled image.
    pub fn zeros(width: usize, height: usize, channels: usize) -> Self {
        Image {
            width,
            height,
            channels,
            data: vec![0.0; width * height * channels],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Samples per pixel.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Raw interleaved samples.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Sample at `(x, y, c)`. Panics when out of range, like slice
    /// indexing — lab reference code treats bad coordinates as bugs.
    pub fn at(&self, x: usize, y: usize, c: usize) -> f32 {
        assert!(x < self.width && y < self.height && c < self.channels);
        self.data[(y * self.width + x) * self.channels + c]
    }

    /// Set the sample at `(x, y, c)`.
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: f32) {
        assert!(x < self.width && y < self.height && c < self.channels);
        self.data[(y * self.width + x) * self.channels + c] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_data_validates_len() {
        assert!(Image::from_data(2, 2, 1, vec![0.0; 4]).is_ok());
        assert!(Image::from_data(2, 2, 1, vec![0.0; 5]).is_err());
        assert!(Image::from_data(2, 2, 0, vec![]).is_err());
    }

    #[test]
    fn indexing_is_row_major_interleaved() {
        let mut img = Image::zeros(3, 2, 2);
        img.set(2, 1, 1, 9.0);
        assert_eq!(img.at(2, 1, 1), 9.0);
        // (y * w + x) * c + ch = (1*3+2)*2+1 = 11
        assert_eq!(img.data()[11], 9.0);
    }

    #[test]
    #[should_panic]
    fn at_panics_out_of_range() {
        Image::zeros(2, 2, 1).at(2, 0, 0);
    }
}
